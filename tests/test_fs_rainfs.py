"""Tests for the RAINfs distributed file system (paper Sec. 7 future work)."""


from repro import ClusterConfig, RainCluster, Simulator
from repro.codes import BCode
from repro.fs import FsError, RainFsNode


def fs_cluster(nodes=6, seed=61, block_size=4096):
    sim = Simulator(seed=seed)
    cl = RainCluster(sim, ClusterConfig(nodes=nodes))
    fs = [
        RainFsNode(
            cl.member(i), cl.elections[i], cl.store_on(i, BCode(6)), block_size=block_size
        )
        for i in range(nodes)
    ]
    sim.run(until=2.0)
    return sim, cl, fs


def run(sim, gen, until=120.0):
    return sim.run_process(gen, until=sim.now + until)


def test_write_read_roundtrip():
    sim, cl, fs = fs_cluster()

    def script():
        data = b"The quick brown fox " * 500  # multi-block
        yield from fs[0].write("/f.bin", data)
        return (yield from fs[0].read("/f.bin")), data

    out, data = run(sim, script())
    assert out == data


def test_read_from_any_node():
    sim, cl, fs = fs_cluster()

    def script():
        yield from fs[0].write("/shared.txt", b"visible everywhere")
        results = []
        for node in fs[1:]:
            results.append((yield from node.read("/shared.txt")))
        return results

    results = run(sim, script())
    assert all(r == b"visible everywhere" for r in results)


def test_empty_file():
    sim, cl, fs = fs_cluster()

    def script():
        yield from fs[0].write("/empty", b"")
        return (yield from fs[0].read("/empty"))

    assert run(sim, script()) == b""


def test_overwrite_replaces_content_and_gcs_blocks():
    sim, cl, fs = fs_cluster()

    def script():
        yield from fs[0].write("/f", b"version-one " * 400)
        meta1 = yield from fs[0].stat("/f")
        yield from fs[0].write("/f", b"v2")
        meta2 = yield from fs[0].stat("/f")
        data = yield from fs[0].read("/f")
        return meta1, meta2, data

    meta1, meta2, data = run(sim, script())
    assert data == b"v2"
    assert meta2["version"] == meta1["version"] + 1
    sim.run(until=sim.now + 3.0)  # let DROPs propagate
    old_blocks = set(meta1["blocks"])
    for srv in cl.storage_nodes:
        assert not (old_blocks & set(srv.symbols)), "old blocks not GC'd"


def test_append():
    sim, cl, fs = fs_cluster()

    def script():
        yield from fs[0].write("/log", b"line1\n")
        yield from fs[1].append("/log", b"line2\n")
        yield from fs[2].append("/log", b"line3\n")
        return (yield from fs[0].read("/log"))

    assert run(sim, script()) == b"line1\nline2\nline3\n"


def test_append_creates_missing_file():
    sim, cl, fs = fs_cluster()

    def script():
        yield from fs[0].append("/new.log", b"first")
        return (yield from fs[0].read("/new.log"))

    assert run(sim, script()) == b"first"


def test_listdir_and_delete():
    sim, cl, fs = fs_cluster()

    def script():
        for p in ("/d/a", "/d/b", "/e/c"):
            yield from fs[0].write(p, b"x")
        ls_all = yield from fs[0].listdir("/")
        ls_d = yield from fs[0].listdir("/d")
        yield from fs[0].delete("/d/a")
        ls_after = yield from fs[0].listdir("/d")
        return ls_all, ls_d, ls_after

    ls_all, ls_d, ls_after = run(sim, script())
    assert ls_all == ["/d/a", "/d/b", "/e/c"]
    assert ls_d == ["/d/a", "/d/b"]
    assert ls_after == ["/d/b"]


def test_rename():
    sim, cl, fs = fs_cluster()

    def script():
        yield from fs[0].write("/before", b"contents")
        yield from fs[0].rename("/before", "/after")
        data = yield from fs[0].read("/after")
        try:
            yield from fs[0].read("/before")
            gone = False
        except FsError:
            gone = True
        return data, gone

    data, gone = run(sim, script())
    assert data == b"contents" and gone


def test_read_missing_raises():
    sim, cl, fs = fs_cluster()

    def script():
        try:
            yield from fs[0].read("/ghost")
            return "found"
        except FsError:
            return "missing"

    assert run(sim, script()) == "missing"


def test_files_survive_m_node_failures():
    sim, cl, fs = fs_cluster()

    def write():
        yield from fs[0].write("/durable", b"survives failures " * 300)

    run(sim, write())
    cl.crash(4)
    cl.crash(5)  # n-k = 2 for bcode(6,4)

    def read():
        return (yield from fs[1].read("/durable"))

    assert run(sim, read()) == b"survives failures " * 300


def test_metadata_survives_leader_crash():
    sim, cl, fs = fs_cluster()

    def write():
        yield from fs[1].write("/important", b"do not lose me")

    run(sim, write())
    leader = cl.elections[0].leader
    idx = cl.names.index(leader)
    cl.crash(idx)
    survivor = fs[(idx + 1) % len(fs)]

    def after():
        data = yield from survivor.read("/important")
        yield from survivor.write("/post-crash", b"new writes work too")
        listing = yield from survivor.listdir("/")
        return data, listing

    data, listing = run(sim, after(), until=180.0)
    assert data == b"do not lose me"
    assert listing == ["/important", "/post-crash"]


def test_two_leader_crashes_in_a_row():
    sim, cl, fs = fs_cluster()

    def write():
        yield from fs[2].write("/x", b"abc")

    run(sim, write())
    for _ in range(2):
        leader = next(e.leader for e in cl.elections if e.membership.host.up)
        cl.crash(cl.names.index(leader))
        sim.run(until=sim.now + 8.0)
    survivor = next(f for f in fs if f.membership.host.up)

    def read():
        return (yield from survivor.read("/x"))

    assert run(sim, read(), until=180.0) == b"abc"


def test_concurrent_writers_last_commit_wins():
    sim, cl, fs = fs_cluster()
    results = {}

    def writer(i):
        def gen():
            meta = yield from fs[i].write("/contended", bytes([i]) * 64)
            results[i] = meta["version"]

        return gen()

    p1 = sim.process(writer(1))
    p2 = sim.process(writer(2))
    p1._defused = p2._defused = True
    sim.run(until=sim.now + 60.0)

    def read():
        return (yield from fs[0].read("/contended"))

    data = run(sim, read())
    assert data in (bytes([1]) * 64, bytes([2]) * 64)
    assert set(results) == {1, 2}


def test_many_files_namespace_scales():
    sim, cl, fs = fs_cluster()

    def script():
        for i in range(25):
            yield from fs[i % 6].write(f"/bulk/file{i:03d}", f"payload-{i}".encode())
        listing = yield from fs[0].listdir("/bulk")
        sample = yield from fs[3].read("/bulk/file017")
        return listing, sample

    listing, sample = run(sim, script(), until=300.0)
    assert len(listing) == 25
    assert sample == b"payload-17"


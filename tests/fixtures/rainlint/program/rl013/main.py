"""The fixture program's entry point: its uses are what RL013 counts."""

from repro import serve

print(serve("f(g(x))"))

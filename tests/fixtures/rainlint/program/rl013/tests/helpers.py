"""A test-side caller: only a lint that takes ``tests/`` in sees it."""

from repro.api import only_tests_call

assert only_tests_call() == 5

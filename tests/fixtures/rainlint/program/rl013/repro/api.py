"""RL013 fixture: which library defs count as called.

Linted with ``main.py`` and without ``tests/``, exactly two defs here
have no caller: ``only_tests_call`` (only ``tests/helpers.py`` calls it)
and ``only_reexported`` (an import and an ``__all__`` entry are not
uses).  The rest stay silent: a ``getattr`` string, a ``visit_*``
override of a base outside the linted tree, and a pragma with a reason.
"""

import ast


class Handlers:
    def reached_by_getattr(self):
        return 1


class CallCounter(ast.NodeVisitor):
    def __init__(self):
        self.calls = 0

    def visit_Call(self, node):
        self.calls += 1
        self.generic_visit(node)


def serve(source):
    counter = CallCounter()
    counter.visit(ast.parse(source))
    return getattr(Handlers(), "reached_by_getattr")(), counter.calls


def kept():  # rainlint: disable=RL013 -- fixture: a pragma with a reason keeps a name
    return 3


def only_reexported():
    return 4


def only_tests_call():
    return 5

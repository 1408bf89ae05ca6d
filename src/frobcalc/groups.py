"""Finite groups given by explicit Cayley tables (order <= 24)."""

from __future__ import annotations

from itertools import permutations

from .errors import MalformedInput

MAX_ORDER = 24


class GroupData:
    """A finite group as a multiplication table; fully verified on construction."""

    __slots__ = ("order", "table", "identity", "inverse")

    def __init__(self, table):
        m = len(table)
        if m == 0 or m > MAX_ORDER:
            raise MalformedInput(f"group order must be in [1, {MAX_ORDER}]")
        if any(len(row) != m for row in table):
            raise MalformedInput("Cayley table must be square")
        if any(not (0 <= v < m) for row in table for v in row):
            raise MalformedInput("Cayley table entries out of range")
        self.order = m
        self.table = tuple(tuple(row) for row in table)
        ident = None
        for e in range(m):
            if all(self.table[e][g] == g and self.table[g][e] == g for g in range(m)):
                ident = e
                break
        if ident is None:
            raise MalformedInput("Cayley table has no identity")
        self.identity = ident
        inv = [None] * m
        for g in range(m):
            for h in range(m):
                if self.table[g][h] == ident and self.table[h][g] == ident:
                    inv[g] = h
                    break
            if inv[g] is None:
                raise MalformedInput(f"element {g} has no inverse")
        self.inverse = tuple(inv)
        for g in range(m):
            for h in range(m):
                gh = self.table[g][h]
                for k in range(m):
                    if self.table[gh][k] != self.table[g][self.table[h][k]]:
                        raise MalformedInput(
                            f"Cayley table is not associative at ({g},{h},{k})")

    def mul(self, g, h):
        return self.table[g][h]

    def __eq__(self, other):
        return isinstance(other, GroupData) and self.table == other.table

    def __repr__(self):
        return f"GroupData(order={self.order})"


def cyclic_group(n):
    return GroupData([[(i + j) % n for j in range(n)] for i in range(n)])


def symmetric_group_3():
    """S_3 acting on {0,1,2}; element 0 is the identity."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[t]] for t in range(3))] for q in perms] for p in perms]
    return GroupData(table)

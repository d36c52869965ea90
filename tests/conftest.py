"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import sys
import threading

import pytest

import natspace as ns
from natspace.dots import Seq
from natspace.induction import GeneticBar, Leaf, Split

# ---------------------------------------------------------------------------
# Session-scoped space fixtures (descriptors are cached and immutable).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def sigma01():
    return ns.std_space("sigma_[0,1]")


@pytest.fixture(scope="session")
def sigmaR():
    return ns.std_space("sigma_R")


@pytest.fixture(scope="session")
def cantor_space():
    return ns.std_space("cantor")


@pytest.fixture(scope="session")
def t2():
    return ns.std_space("T2")


@pytest.fixture(scope="session")
def t3():
    return ns.std_space("T3")


@pytest.fixture(scope="session")
def baire():
    return ns.std_space("baire")


@pytest.fixture(scope="session")
def ext01(sigma01):
    """The unit fan extended with an isolated point."""
    return ns.extend_with_isolated_point(sigma01)


@pytest.fixture(scope="session")
def metric_ev(ext01):
    """One shared evaluator so Urysohn separators are built once."""
    return ns.MetricEvaluator(ext01)


# ---------------------------------------------------------------------------
# Helpers shared across test modules.
# ---------------------------------------------------------------------------


def spread_point(space, b: Seq) -> ns.Point:
    """A lazy point of a sequence space extending b by zeros."""

    def gen():
        cur = b
        while True:
            yield cur
            cur = Seq(cur.syms + (0,))

    return ns.Point(space, gen, name=f"ext{b!r}")


def random_bar(space, root, max_depth: int, seed: int) -> GeneticBar:
    """A random genetic bar: each node decides leaf/split from a per-dot
    deterministic draw, forcing leaves at the depth limit."""

    def node(d, k: int):
        r = random.Random(f"{seed}:{d!r}").random()
        if k <= 0 or (k < max_depth and r < 0.35):
            return Leaf(d)
        return Split(d, lambda s, k=k: node(s, k - 1))

    return GeneticBar(space, node(root, max_depth))


def read_together(read, threads: int = 4) -> list:
    """What each thread gets from read(), the threads started together and
    switched often so that their draws from a shared stream interleave."""
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def run(t):
        barrier.wait(timeout=60)
        results[t] = read()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    return results


# ---------------------------------------------------------------------------
# Acceptance reporting: one line per criterion in the terminal summary.
# ---------------------------------------------------------------------------

_CRITERIA = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_") and report.when == "call":
        num = name.split("_")[2]
        _CRITERIA[num] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERIA, key=int):
        terminalreporter.write_line(f"criterion {int(num)}: {_CRITERIA[num]}")

"""Shared fixtures: small compiled programs reused across test modules."""

from __future__ import annotations

import dataclasses
import functools
import os

import pytest

from repro.compiler.driver import compile_source
from repro.machine.simulator import run_program

#: Timing-sensitive tests (service backpressure, worker slots, request
#: timeouts) multiply every sleep and deadline bound by
#: ``$REPRO_TEST_TIMEOUT``.  On a loaded CI runner, exporting e.g.
#: ``REPRO_TEST_TIMEOUT=3`` stretches the schedule uniformly — the
#: relative ordering the tests assert is untouched, only the margins
#: grow.  Defaults to 1.0 (historical timings).
TIME_SCALE = float(os.environ.get("REPRO_TEST_TIMEOUT", "1") or "1")


def time_scaled(seconds: float) -> float:
    """``seconds`` stretched by the ``$REPRO_TEST_TIMEOUT`` factor."""
    return seconds * TIME_SCALE


#: Table 10 cut down to two workloads: a campaign over it has exactly
#: two run cells, which keeps warm-stage tests fast.
SMALL_GRID_NAMES = ("129.compress", "181.mcf")


@pytest.fixture
def small_grid(monkeypatch):
    """Restrict Table 10 to :data:`SMALL_GRID_NAMES` for one test."""
    from repro.experiments import runner, table10
    monkeypatch.setattr(table10, "SPEC", dataclasses.replace(
        table10.SPEC, names=SMALL_GRID_NAMES))
    monkeypatch.setitem(runner.EXPERIMENTS, 10, functools.partial(
        table10.run, names=SMALL_GRID_NAMES))

#: A program exercising arrays, structs, pointers, loops and calls —
#: the common subject for integration-level assertions.
SAMPLE_SOURCE = r"""
struct node { int value; struct node *next; };
int table[64];
struct node *head;

int push(int v) {
    struct node *n;
    n = (struct node*) malloc(sizeof(struct node));
    n->value = v;
    n->next = head;
    head = n;
    return v;
}

int walk() {
    struct node *p;
    int sum;
    sum = 0;
    p = head;
    while (p != NULL) {
        sum = sum + p->value;
        p = p->next;
    }
    return sum;
}

int main() {
    int i;
    int sum;
    for (i = 0; i < 40; i = i + 1) {
        push(i * 3);
        table[i & 63] = i * i;
    }
    sum = walk();
    for (i = 0; i < 40; i = i + 1)
        sum = sum + table[i];
    print_int(sum);
    return 0;
}
"""

SAMPLE_EXPECTED = sum(i * 3 for i in range(40)) + sum(i * i
                                                      for i in range(40))


@pytest.fixture(scope="session")
def sample_program():
    return compile_source(SAMPLE_SOURCE)


@pytest.fixture(scope="session")
def sample_program_opt():
    return compile_source(SAMPLE_SOURCE, optimize=True)


@pytest.fixture(scope="session")
def sample_result(sample_program):
    return run_program(sample_program)


@pytest.fixture(scope="session")
def sample_result_opt(sample_program_opt):
    return run_program(sample_program_opt)


def compile_and_run(source: str, optimize: bool = False,
                    max_steps: int = 50_000_000, args=()):
    """Compile, run, and return (program, result)."""
    program = compile_source(source, optimize=optimize)
    result = run_program(program, max_steps=max_steps, args=args)
    return program, result

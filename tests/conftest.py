from __future__ import annotations

from pathlib import Path

import pytest

from typel import datalog
from typel.parser import parse_kb

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_fixture(name: str):
    path = fixture_path(name)
    return parse_kb(path.read_text(), filename=str(path))


@pytest.fixture
def example1():
    return load_fixture("example1.kbt")


@pytest.fixture
def example1_af():
    return load_fixture("example1-af.kbt")


@pytest.fixture
def example4():
    return load_fixture("example4.kbt")


@pytest.fixture
def generated(monkeypatch):
    """(steps, compiles): the join group of each step function the engine
    generates during the test, and the source of each compile call it
    makes, counted from an empty cache of prepared rule tables."""
    steps, compiles = [], []
    gen_step = datalog._gen_step
    monkeypatch.setattr(datalog, "_gen_step", lambda group: steps.append(group) or gen_step(group))
    def counting_compile(src, *args):
        compiles.append(src)
        return compile(src, *args)

    monkeypatch.setattr(datalog, "compile", counting_compile, raising=False)
    datalog._prepare.cache_clear()
    yield steps, compiles
    datalog._prepare.cache_clear()

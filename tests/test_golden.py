"""The golden CLI corpus (tests/golden/cli.jsonl): every call gives the
stored exit code, stdout and stderr line, compared exactly, and every
nonzero exit is claimed by one known fault of tests/golden/faults.py.  The
bits hold for the numeric stack named in the corpus header; on another
stack the comparisons skip, naming both stacks and the command that
rewrites the corpus.  Nothing is compared with a tolerance."""

import importlib.util
import json
import shlex
from pathlib import Path

import pytest


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"golden_{name}", Path(__file__).parent / "golden" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generate, faults = _load("generate"), _load("faults")
_HEADER, *_LINES = (json.loads(line) for line in generate.CORPUS.read_text().splitlines())
_STACK = generate.stack()


def _skip_on_another_stack():
    if _HEADER["stack"] != _STACK:
        pytest.skip(f"corpus written on {_HEADER['stack']}, this stack is {_STACK}; "
                    f"rewrite it with {generate.REGENERATE}")


def test_corpus_holds_the_generator_calls():
    assert [(line["tag"], line["argv"]) for line in _LINES] == generate.calls()


@pytest.mark.parametrize("line", [pytest.param(line, id=f"{i:02d}-{line['argv'][0]}")
                                  for i, line in enumerate(_LINES)])
def test_call_gives_the_stored_output(line):
    _skip_on_another_stack()
    assert generate.run(line["argv"]) == {k: line[k] for k in ("exit", "stdout", "stderr")}


def test_every_fault_is_claimed_by_its_item():
    """Each nonzero exit by exactly one predicate, each line tagged ``item ...``
    by that item's, and each predicate claims some line (or its fault is mended)."""
    _skip_on_another_stack()
    claimed = set()
    for line in _LINES:
        owners = [p for p in faults.FAULTS
                  if p(line["argv"], line["exit"], line["stdout"], line["stderr"])]
        claimed.update(owners)
        where = f"{line['tag']}: {shlex.join(line['argv'])} (exit {line['exit']})"
        assert len(owners) <= 1, f"{[p.__name__ for p in owners]} all claim {where}"
        assert owners or line["exit"] == 0, f"no known fault claims {where}"
        if line["tag"].startswith("item"):
            assert [p.item for p in owners] == [line["tag"]], where
    mended = [p.__name__ for p in faults.FAULTS if p not in claimed]
    assert not mended, f"no corpus line shows these faults any more; drop {mended}"

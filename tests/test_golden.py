"""The golden CLI corpus (tests/golden/cli.jsonl): every call gives the
stored exit code, stdout and stderr line, compared exactly.  The bits hold
for the numeric stack named in the corpus header; on another stack the
comparisons skip, naming both stacks and the command that rewrites the
corpus.  Nothing is compared with a tolerance."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_generate", Path(__file__).parent / "golden" / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

_HEADER, *_LINES = (json.loads(line) for line in generate.CORPUS.read_text().splitlines())
_STACK = generate.stack()


def test_corpus_holds_the_generator_calls():
    assert [(line["tag"], line["argv"]) for line in _LINES] == generate.calls()


@pytest.mark.parametrize("line", [pytest.param(line, id=f"{i:02d}-{line['argv'][0]}")
                                  for i, line in enumerate(_LINES)])
def test_call_gives_the_stored_output(line):
    if _HEADER["stack"] != _STACK:
        pytest.skip(f"corpus written on {_HEADER['stack']}, this stack is {_STACK}; "
                    f"rewrite it with {generate.REGENERATE}")
    assert generate.run(line["argv"]) == {k: line[k] for k in ("exit", "stdout", "stderr")}

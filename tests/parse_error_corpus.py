"""A generated corpus of broken certificates and the parse error each one gets.

Every case is a small edit of a valid certificate text: the text cut off after
a token, one token replaced by ``x/0``, ``-`` or ``{``, or one line split in two
at a gap between tokens (alone, or with the token after or before the gap
replaced by ``x/0``, or with the text cut off right after the token after the
gap). The outcome of a case is ``[line, message]`` of its ``ParseError``, or
``None`` when the text parses.

tests/data/parse_errors.json holds the outcomes; tests/test_certfile.py
rebuilds the corpus and compares every case. To write the file again after a
deliberate change of an error, run from the repository root::

    PYTHONPATH=src python3 tests/parse_error_corpus.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from mipcert.certfile import ParseError, read_certificate

DATA_DIR = Path(__file__).parent / "data"
CORPUS_PATH = DATA_DIR / "parse_errors.json"
REPLACEMENTS = ("x/0", "-", "{")
_TOKEN = re.compile(r"\S+")


def corpus_texts() -> dict[str, str]:
    """The valid texts the cases are made from."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads  # the benchmark's seeded generators

    texts = {
        name: (DATA_DIR / f"{name}.crt").read_text(encoding="utf-8")
        for name in ("small_range", "rounding_chain", "split_infeasible")
    }
    texts["tree seed 7 depth 3"] = workloads.tree_certificate(7, depth=3).text
    texts["small_range one token per line"] = "\n".join(texts["small_range"].split()) + "\n"
    return texts


def token_spans(text: str) -> list[tuple[int, int, int]]:
    """(start, end, line number) of each token, comments left out."""
    spans = []
    offset = 0
    for number, line in enumerate(text.splitlines(keepends=True), start=1):
        code = line.split("%", 1)[0]
        spans += [(offset + m.start(), offset + m.end(), number) for m in _TOKEN.finditer(code)]
        offset += len(line)
    return spans


def outcome(text: str) -> list | None:
    try:
        read_certificate(text.splitlines())
    except ParseError as exc:
        return [exc.line, exc.message]
    return None


def corpus_outcomes(text: str) -> dict[str, list]:
    """Every case made from ``text``, by kind, in token order."""
    spans = token_spans(text)
    found: dict[str, list] = {"cut": [outcome(text[:end]) for _, end, _ in spans]}
    for token in REPLACEMENTS:
        found[token] = [outcome(text[:start] + token + text[end:]) for start, end, _ in spans]
    splits = []
    for k, ((_, before_end, line), (after_start, after_end, after_line)) in enumerate(
        zip(spans, spans[1:])
    ):
        if line != after_line:
            continue
        head, tail = text[:before_end] + "\n", text[after_start:]
        before_start = spans[k][0]
        splits.append(
            [
                k,
                outcome(head + tail),
                outcome(head + "x/0" + tail[after_end - after_start :]),
                outcome(text[:before_start] + "x/0\n" + tail),
                outcome(head + tail[: after_end - after_start]),
            ]
        )
    found["split"] = splits
    return found


def build_corpus() -> dict[str, dict[str, list]]:
    return {name: corpus_outcomes(text) for name, text in corpus_texts().items()}


def corpus_json(corpus: dict[str, dict[str, list]]) -> str:
    """The corpus as JSON text with one case a line."""
    kinds = [
        f"{json.dumps(name)}: {{\n"
        + ",\n".join(
            f"{json.dumps(kind)}: [\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]"
            for kind, cases in found.items()
        )
        + "\n}"
        for name, found in corpus.items()
    ]
    return "{\n" + ",\n".join(kinds) + "\n}\n"


if __name__ == "__main__":
    CORPUS_PATH.write_text(corpus_json(build_corpus()), encoding="utf-8")

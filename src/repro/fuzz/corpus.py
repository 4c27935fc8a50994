"""The committed regression corpus.

Every failure the fuzzer finds (after shrinking) can be serialized to
a small JSON file and committed under ``tests/corpus/``;
``tests/test_fuzz_corpus.py`` replays every committed case through all
applicable oracles on each test run.  The corpus therefore does double
duty: it pins down once-seen bugs forever, and it seeds the harness
with inputs known to reach interesting code.

Files are named ``<kind>-<spec digest>.json``, so re-saving the same
minimized case is idempotent and two different failures can never
collide.  The payload is exactly what :class:`FuzzCase` needs to
rebuild the input:

.. code-block:: json

    {"schema": 1, "kind": "trace", "label": "trace seed 7",
     "note": "off-by-one eviction repro", "spec": {...}}
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.fuzz.generators import CASE_KINDS, FuzzCase

CORPUS_SCHEMA = 1


def spec_digest(spec: dict) -> str:
    """Content address of one spec (stable across dict ordering)."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def case_filename(case: FuzzCase) -> str:
    return f"{case.kind}-{spec_digest(case.spec)}.json"


def save_case(case: FuzzCase, directory: Path,
              note: str = "") -> Path:
    """Write one case into the corpus; returns the file path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / case_filename(case)
    payload = {"schema": CORPUS_SCHEMA, "kind": case.kind,
               "label": case.label, "note": note, "spec": case.spec}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                    + "\n")
    return path


def load_case(path: Path) -> FuzzCase:
    """Rebuild one corpus case; raises ValueError on a bad file."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != CORPUS_SCHEMA:
        raise ValueError(f"{path}: unsupported corpus schema "
                         f"{payload.get('schema')!r}")
    kind = payload.get("kind")
    if kind not in CASE_KINDS:
        raise ValueError(f"{path}: unknown case kind {kind!r}")
    spec = payload.get("spec")
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: spec must be an object")
    label = payload.get("label") or Path(path).stem
    return FuzzCase(kind=kind, spec=spec, label=label)


def load_corpus(directory: Path) -> list[tuple[Path, FuzzCase]]:
    """Every case in ``directory``, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [(path, load_case(path))
            for path in sorted(directory.glob("*.json"))]

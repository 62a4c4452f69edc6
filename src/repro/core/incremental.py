"""Fingerprints and the output cache of incremental (make-style) runs.

Observatories rerun the pipeline constantly — after a parameter tweak,
after one more station's record arrives, after a crash.  Rerunning all
20 processes from scratch every time is the very cost the paper
attacks; the ``incremental`` policy
(:class:`repro.engine.policy.IncrementalPolicy`) attacks the *other*
axis: skip every process whose inputs and outputs are already up to
date.

Mechanism, built on the registry's declared reads/writes:

1. before running a process, resolve its declared read identities to
   concrete files (:meth:`Workspace.artifact_paths`) and fingerprint
   them (sha256 over contents) together with the run configuration;
2. if the fingerprint matches the recorded state **and** every
   declared output still exists with its recorded digest, skip;
3. if the inputs match but the outputs were overwritten (the V2
   records are written twice: P4's default correction, then P13's
   definitive one) or deleted, **restore** the process's cached output
   bytes instead of recomputing — every executed process deposits its
   outputs in ``<workspace>/.cache/p<pid>/``;
4. otherwise run the process, cache its outputs and record the new
   fingerprints (the state file is rewritten after every executed
   process, so a failed run keeps what it finished).

Because a skipped or restored process leaves its outputs
byte-identical, downstream fingerprints are unchanged and the skipping
cascades — an untouched workspace re-runs in milliseconds (two cheap
byte restores for the twice-written V2 generation), while any edit
(a changed input record, a deleted artifact, a new filter default)
re-executes exactly the affected suffix of the dependency graph.

State lives in ``<workspace>/.pipeline_state.json`` and
``<workspace>/.cache/`` — outside ``work/`` so the artifact inventory
stays identical to the other policies'.  This module holds the
digest, state and cache helpers; the policy's per-process steps use
them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

from repro.core.context import RunContext

STATE_FILE = ".pipeline_state.json"


def config_fingerprint(ctx: RunContext) -> str:
    """Fingerprint of the numeric configuration that shapes outputs."""
    payload = {
        "filter": [
            ctx.default_filter.f_stop_low,
            ctx.default_filter.f_pass_low,
            ctx.default_filter.f_pass_high,
            ctx.default_filter.f_stop_high,
        ],
        "periods": list(map(float, ctx.response_config.periods)),
        "dampings": list(ctx.response_config.dampings),
        "method": ctx.response_config.method,
        "pseudo": ctx.response_config.pseudo,
        "taper": ctx.taper_fraction,
        "max_period": ctx.fourier_max_period,
        "inflection": [
            ctx.inflection.min_period,
            ctx.inflection.smoothing_half_width,
            ctx.inflection.persistence,
            ctx.inflection.fsl_ratio,
            ctx.inflection.fallback_period,
        ],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def digest_files(paths: list[Path]) -> str:
    """One digest over a file set: names, presence and contents."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        if path.exists():
            h.update(b"1")
            h.update(hashlib.sha256(path.read_bytes()).digest())
        else:
            h.update(b"0")
    return h.hexdigest()


def _cache_dir(root: Path, pid: int) -> Path:
    return Path(root) / ".cache" / f"p{pid:02d}"


def load_state(root: Path) -> dict:
    """The recorded per-process digests, or ``{}``.

    A missing, unreadable or malformed state file (anything but a
    dict of dicts) means nothing is known to be up to date.
    """
    try:
        state = json.loads((Path(root) / STATE_FILE).read_text())
    except (json.JSONDecodeError, OSError):
        return {}
    if not isinstance(state, dict) or not all(
        isinstance(entry, dict) for entry in state.values()
    ):
        return {}
    return state


def save_state(root: Path, state: dict) -> None:
    (Path(root) / STATE_FILE).write_text(json.dumps(state, indent=1, sort_keys=True))


def cache_outputs(root: Path, pid: int, write_paths: list[Path]) -> None:
    """Deposit a process's fresh output bytes in its cache folder."""
    cache = _cache_dir(root, pid)
    if cache.exists():
        shutil.rmtree(cache)
    cache.mkdir(parents=True)
    for path in write_paths:
        if path.exists():
            shutil.copy2(path, cache / path.name)


def restore_outputs(root: Path, pid: int, write_paths: list[Path]) -> bool:
    """Copy cached output bytes back; False if the cache is stale."""
    cache = _cache_dir(root, pid)
    if not cache.is_dir():
        return False
    cached_names = {p.name for p in cache.iterdir()}
    if {p.name for p in write_paths} - cached_names:
        return False
    for path in write_paths:
        shutil.copy2(cache / path.name, path)
    return True

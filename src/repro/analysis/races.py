"""The symbolic race model: per-unit file-access sets and their collisions.

A unit of parallelism — a station, a trace, a work-list file or a whole
member process — is described by the *symbolic* file-access sets it
may touch, written as parameterized artifact-name templates
(``{u}l.v2``, ``{u}f.ps``, …).  :func:`unit_collisions` proves that no
two concurrent units can touch the same file with at least one write.
The graph verifier (:mod:`repro.analysis.graphlint`) applies it to
every region of a policy's plan, and ``repro-lint``'s race pass is that
verifier over the paper's policies.  This is the static counterpart of
the runtime auditor (:mod:`repro.analysis.audit`): the auditor observes
one run, the proof covers *all* runs.

Name templates and the disjointness argument
--------------------------------------------

An atom is either a literal path (``work/filter.par``) or a template
``prefix + KEY + suffix`` where KEY is the unit's distinguishing key
(station code, or station+component composite).  Keys of two distinct
units of the same *key class* are distinct strings; keys are drawn
from the uppercase station alphabet (plus a trailing lowercase
component letter for composite keys).  Two templates can only collide
if one suffix is a proper suffix of the other and the absorbed middle
segment could be part of a key — segments containing lowercase
characters (the component letters and the ``f``/``r`` plot markers)
are refuted by the alphabet argument.  Temp folders (stages IV, V,
VIII) are modeled as one private literal per unit: their names embed
the unit index, so they are distinct by construction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.stages import LOOP, TEMP_FOLDERS

COMPONENTS = ("l", "t", "v")

#: Characters a unit key may contain (station codes are uppercase
#: alphanumeric; composite keys end in one lowercase component letter).
_KEY_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")


@dataclass(frozen=True)
class Atom:
    """One file-name pattern: literal, or ``prefix + KEY + suffix``."""

    prefix: str
    suffix: str | None = None  # None -> literal path, prefix is the whole name
    key_class: str = ""

    @property
    def literal(self) -> bool:
        return self.suffix is None

    def render(self) -> str:
        if self.literal:
            return self.prefix
        return f"{self.prefix}{{u:{self.key_class}}}{self.suffix}"


def lit(name: str) -> Atom:
    return Atom(prefix=name)


def tpl(suffix: str, key_class: str = "station", prefix: str = "work/") -> Atom:
    return Atom(prefix=prefix, suffix=suffix, key_class=key_class)


@dataclass
class UnitAccess:
    """Symbolic access sets of one unit of parallelism in a stage."""

    name: str
    key_class: str  # units of the same class have pairwise-distinct keys
    reads: list[Atom] = field(default_factory=list)
    writes: list[Atom] = field(default_factory=list)


def _segment_possible_in_key(segment: str) -> bool:
    """Could this literal segment be absorbed into a unit key?"""
    return all(ch in _KEY_CHARS for ch in segment)


def atoms_may_collide(a: Atom, b: Atom, same_unit_keys_distinct: bool) -> bool:
    """Whether two atoms from *different units* can name the same file.

    ``same_unit_keys_distinct`` is true when both atoms' units belong to
    the same key class (their keys are then known unequal).
    """
    if a.literal and b.literal:
        return a.prefix == b.prefix
    if a.literal != b.literal:
        literal, template = (a, b) if a.literal else (b, a)
        if not literal.prefix.startswith(template.prefix):
            return False
        rest = literal.prefix[len(template.prefix):]
        if not rest.endswith(template.suffix or ""):
            return False
        stem = rest[: len(rest) - len(template.suffix or "")]
        return bool(stem) and _segment_possible_in_key(stem[-1:])
    # template vs template
    if a.prefix != b.prefix:
        # All templated names live in flat directories; distinct
        # directory prefixes cannot produce equal paths.
        return False
    sa, sb = a.suffix or "", b.suffix or ""
    if sa == sb:
        return not same_unit_keys_distinct
    if len(sa) == len(sb):
        return False  # equal length, different text: keys can't absorb it
    longer, shorter = (sa, sb) if len(sa) > len(sb) else (sb, sa)
    if not longer.endswith(shorter):
        return False
    absorbed = longer[: len(longer) - len(shorter)]
    return _segment_possible_in_key(absorbed)


# -- per-stage unit models (mirrors staged.py / the paper's Fig. 9) ----


def _station_unit(stage_name: str, pid: int) -> list[UnitAccess]:
    if pid == 3:
        return [UnitAccess(
            "separate_station", "station",
            reads=[tpl(".v1", prefix="input/")],
            writes=[tpl(f"{c}.v1") for c in COMPONENTS],
        )]
    if pid in (4, 13):
        params = lit("work/filter.par") if pid == 4 else lit("work/filter_corrected.par")
        return [UnitAccess(
            "correction_instance", "station",
            reads=[params] + [tpl(f"{c}.v1") for c in COMPONENTS],
            writes=[tpl(f"{c}.v2") for c in COMPONENTS]
            + [tpl(f"{c}.max") for c in COMPONENTS]
            # The private temp folder embeds the unit's ordinal, so it
            # is a template keyed by the same unit.
            + [tpl("", key_class="station", prefix=f"work/tmp/{stage_name.lower()}_")],
        )]
    if pid == 7:
        return [UnitAccess(
            "fourier_instance", "station",
            reads=[tpl(f"{c}.v2") for c in COMPONENTS],
            writes=[tpl(f"{c}.f") for c in COMPONENTS]
            + [tpl("", key_class="station", prefix=f"work/tmp/{stage_name.lower()}_")],
        )]
    raise ValueError(f"no station-unit model for P{pid}")


def _loop_units(stage_name: str, pid: int) -> list[UnitAccess]:
    if pid == 3:
        return _station_unit(stage_name, pid)
    if pid == 10:
        # Inner loop over one station's components; results are
        # returned in memory, the driver writes filter_corrected.par
        # after the barrier.
        return [UnitAccess(
            "analyze_component", "trace",
            reads=[tpl(".f", key_class="trace")],
            writes=[],
        )]
    if pid == 16:
        return [UnitAccess(
            "response_for_trace", "trace",
            reads=[tpl(".v2", key_class="trace")],
            writes=[tpl(".r", key_class="trace")],
        )]
    if pid == 19:
        # The interleaved work list holds each (station, component)
        # twice — once as a V2 file, once as an R file — so the two
        # subgroups are distinct unit classes that may share keys.
        v2_unit = UnitAccess(
            "set_data_apart[v2]", "gem_v2",
            reads=[tpl(".v2", key_class="gem_v2")],
            writes=[tpl(f"2{q}.gem", key_class="gem_v2") for q in ("A", "V", "D")],
        )
        r_unit = UnitAccess(
            "set_data_apart[r]", "gem_r",
            reads=[tpl(".r", key_class="gem_r")],
            writes=[tpl(f"R{q}.gem", key_class="gem_r") for q in ("A", "V", "D")],
        )
        return [v2_unit, r_unit]
    raise ValueError(f"no loop-unit model for P{pid}")


#: Artifact identity -> the file-name atoms it expands to; the graph
#: verifier (:mod:`repro.analysis.graphlint`) expands every task's
#: declared reads and writes through it.
IDENTITY_ATOMS: dict[str, list[Atom]] = {
    "flags": [lit("work/flags.dat")],
    "flags2": [lit("work/flags2.dat")],
    "v1_list": [lit("work/v1files.lst")],
    "filter_params": [lit("work/filter.par")],
    "filter_corrected": [lit("work/filter_corrected.par")],
    "maxvals": [lit("work/maxvals.dat")],
    "maxvals2": [lit("work/maxvals2.dat")],
    "acc_meta": [lit("work/accgraph.meta")],
    "fourier_meta": [lit("work/fourier.meta")],
    "response_meta": [lit("work/response.meta")],
    "fouriergraph_meta": [lit("work/fouriergraph.meta")],
    "responsegraph_meta": [lit("work/responsegraph.meta")],
    "raw_v1": [tpl(".v1", prefix="input/")],
    "comp_v1": [tpl(f"{c}.v1") for c in COMPONENTS],
    "comp_v2": [tpl(f"{c}.v2") for c in COMPONENTS],
    "comp_f": [tpl(f"{c}.f") for c in COMPONENTS],
    "comp_r": [tpl(f"{c}.r") for c in COMPONENTS],
    "plot_acc": [tpl(".ps")],
    "plot_fourier": [tpl("f.ps")],
    "plot_response": [tpl("r.ps")],
    "gem": [
        tpl(f"{c}{source}{q}.gem")
        for c in COMPONENTS
        for source in ("2", "R")
        for q in ("A", "V", "D")
    ],
}

#: key_class prefix marking a UnitAccess that is one single instance
#: (a whole task), not a class of keyed loop units.
SINGLETON_PREFIX = "task-"


def process_unit_models(pid: int, strategy: str, stage_name: str) -> list[UnitAccess]:
    """Concurrency-unit models of one process under one strategy.

    ``loop`` and ``temp_folders`` return the keyed per-unit templates
    (stations, traces, work-list files); ``seq``/``task`` strategies
    run as one indivisible unit and return no inner model.  Raises
    :class:`ValueError` for a pid the strategy has no model for — a
    builder wiring, say, P12 as a loop is asking for an execution the
    engine cannot perform either.
    """
    if strategy == LOOP:
        return _loop_units(stage_name, pid)
    if strategy == TEMP_FOLDERS:
        return _station_unit(stage_name, pid)
    return []


def unit_collisions(
    units: Sequence[UnitAccess],
) -> list[tuple[UnitAccess, UnitAccess, Atom, Atom, str]]:
    """Every potential conflict among concurrently-running units.

    Returns ``(unit_a, unit_b, atom_a, atom_b, kind)`` tuples with
    ``kind`` in ``write/write``, ``write/read``, ``read/write``.  An
    empty list is the race-freedom proof: no two concurrent units can
    name the same file with at least one write between them.
    """
    collisions: list[tuple[UnitAccess, UnitAccess, Atom, Atom, str]] = []
    for i, a in enumerate(units):
        for b in units[i:]:
            same_class = a.key_class == b.key_class
            distinct_instances = a is not b
            # A unit class with many instances also races against
            # *itself* across instances (same templates, distinct
            # keys) — covered by same_class with keys distinct.
            if a is b and a.key_class.startswith(SINGLETON_PREFIX):
                continue  # a single-instance unit cannot self-race
            pairs = (
                [(x, y, "write/write") for x in a.writes for y in b.writes]
                + [(x, y, "write/read") for x in a.writes for y in b.reads]
            )
            if distinct_instances:
                pairs += [(x, y, "read/write") for x in a.reads for y in b.writes]
            for x, y, kind in pairs:
                if a is b and x is y and kind != "write/write":
                    continue
                if atoms_may_collide(x, y, same_unit_keys_distinct=same_class):
                    collisions.append((a, b, x, y, kind))
    return collisions

"""Rule ``content-key-completeness``: every numeric knob reaches the keys.

Contract (from the PR-7 ``compute_dtype`` near-miss): the engine caches
programmed chip states and sweep rows under *content keys*.  Any dataclass
field that can change programmed numerics but is absent from the keys makes
two different configurations alias the same cache entry — float32 campaigns
silently replaying cached float64 states was the founding example.

The rule introspects the dataclass fields of the four key-bearing specs and
cross-references them against their derivations:

* ``ArchSpec``/``SimContext`` fields must reach
  :func:`repro.engine.state.state_key` (as a parameter or an attribute
  read),
* ``TrialSpec`` fields must all feed the trial content key (``asdict`` of
  the frozen spec counts as full coverage) *and* appear in the sweep
  ``_group_key`` (which decides which trials may share one programmed
  state),
* ``FaultModel`` fields must have a sweep counterpart (a keyword in the
  ``FaultModel(...)`` construction inside ``TrialSpec.context``).

Escapes, each requiring a stated reason:

* ``field(..., compare=False)`` — the dataclass itself declares the field
  equality-irrelevant (``spare_rows``: run-time repair budget, remap never
  changes programmed bytes); auto-exempt,
* an entry in :data:`ALLOWLIST` below,
* an inline ``# analysis: allow=content-key-completeness`` comment on the
  field.

Each check only runs when its cross-reference target is present in the
analyzed file set, so fixtures and partial trees can exercise single
contracts in isolation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Finding, Rule, SourceFile, leaf_name

#: (class, field) -> reason why the field may stay out of the keys.
#: Every entry is a *documented design decision*; deleting one re-arms the
#: checker for that field.
ALLOWLIST: Dict[Tuple[str, str], str] = {
    ("SimContext", "accelerator"): (
        "event-time pricing only; never touches programmed numerics"
    ),
    ("SimContext", "noise"): (
        "programmed states are noise-free by design; per-trial noise is "
        "wired at execution time"
    ),
    ("SimContext", "chunk_bytes"): (
        "chunked read-out is a working-set bound; results are bit-identical "
        "at any chunking"
    ),
    ("SimContext", "faults"): (
        "faults are injected at executor wiring time; cached states stay "
        "fault-free"
    ),
    ("SimContext", "compute_dtype"): (
        "programmed states hold integers only; each executor picks its "
        "layers' GEMM precision at wiring, so every dtype shares one state"
    ),
    ("TrialSpec", "noise_scale"): (
        "programmed states are noise-free; every noise scale shares one "
        "state (program-once design)"
    ),
    ("TrialSpec", "trial"): (
        "trials share one programming; per-trial decorrelation derives from "
        "(seed, 'trial', trial) at wiring time"
    ),
    ("TrialSpec", "stuck_fraction"): (
        "faults are wired at execution; programmed states stay fault-free"
    ),
    ("TrialSpec", "compute_dtype"): (
        "precision is chosen at wiring; trials of every dtype share the "
        "group's integer state (the trial key still carries the dtype)"
    ),
    ("FaultModel", "drift_nu"): (
        "run-CLI knob, not a sweep axis; add a TrialSpec field before "
        "sweeping it"
    ),
    ("FaultModel", "drift_time_s"): (
        "run-CLI knob, not a sweep axis; add a TrialSpec field before "
        "sweeping it"
    ),
    ("FaultModel", "drift_t0_s"): (
        "run-CLI knob, not a sweep axis; add a TrialSpec field before "
        "sweeping it"
    ),
    ("FaultModel", "readout_saturation"): (
        "run-CLI knob, not a sweep axis; add a TrialSpec field before "
        "sweeping it"
    ),
    ("FaultModel", "remap_threshold"): (
        "repair heuristic applied after programming; does not key the "
        "faulted state"
    ),
}


@dataclass
class _Field:
    name: str
    line: int
    col: int
    compare_excluded: bool


def _class_fields(node: ast.ClassDef) -> List[_Field]:
    """The dataclass fields of ``node`` (AnnAssign statements).

    Underscore-prefixed and ``ClassVar`` entries are skipped;
    ``field(..., compare=False)`` marks the field equality-irrelevant and
    therefore exempt from key completeness.
    """
    fields: List[_Field] = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        name = stmt.target.id
        if name.startswith("_"):
            continue
        annotation_names = {
            leaf_name(sub)
            for sub in ast.walk(stmt.annotation)
            if leaf_name(sub) is not None
        }
        if "ClassVar" in annotation_names:
            continue
        compare_excluded = False
        value = stmt.value
        if isinstance(value, ast.Call) and leaf_name(value.func) == "field":
            for kw in value.keywords:
                if (
                    kw.arg == "compare"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                ):
                    compare_excluded = True
        fields.append(
            _Field(
                name=name,
                line=stmt.lineno,
                col=stmt.col_offset,
                compare_excluded=compare_excluded,
            )
        )
    return fields


def _find_class(
    files: Sequence[SourceFile], name: str
) -> Optional[Tuple[SourceFile, ast.ClassDef]]:
    for source in files:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node.name == name:
                return source, node
    return None


def _find_function(
    files: Sequence[SourceFile], name: str
) -> Optional[ast.FunctionDef]:
    for source in files:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return node
    return None


def _attribute_reads(fn: ast.FunctionDef, of: Optional[str] = None) -> Set[str]:
    """Attribute names read inside ``fn`` (optionally only ``of.<attr>``)."""
    reads: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            if of is None or (
                isinstance(node.value, ast.Name) and node.value.id == of
            ):
                reads.add(node.attr)
    return reads


def _method(node: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


class ContentKeyCompletenessRule(Rule):
    name = "content-key-completeness"
    description = (
        "every SimContext/ArchSpec/TrialSpec/FaultModel field reaches "
        "state_key/trial keys/_group_key or is allowlisted with a reason"
    )

    def check(self, files: Sequence[SourceFile]) -> List[Finding]:
        findings: List[Finding] = []
        state_key = _find_function(files, "state_key")
        group_key = _find_function(files, "_group_key")

        if state_key is not None:
            key_params = {arg.arg for arg in state_key.args.args}
            key_reads = _attribute_reads(state_key)
            covered = key_params | key_reads
            for class_name, derivation in (
                ("ArchSpec", "state_key()"),
                ("SimContext", "state_key()"),
            ):
                found = _find_class(files, class_name)
                if found is None:
                    continue
                source, node = found
                findings.extend(
                    self._missing(
                        source, class_name, _class_fields(node), covered, derivation,
                        consequence=(
                            "cached programmed states would alias across "
                            "configurations that differ only in this field"
                        ),
                    )
                )

        trial = _find_class(files, "TrialSpec")
        if trial is not None:
            source, node = trial
            fields = _class_fields(node)
            findings.extend(self._check_trial_key(source, node, fields))
            if group_key is not None:
                spec_param = (
                    group_key.args.args[0].arg if group_key.args.args else None
                )
                reads = _attribute_reads(group_key, of=spec_param)
                findings.extend(
                    self._missing(
                        source, "TrialSpec", fields, reads, "the sweep _group_key",
                        consequence=(
                            "trials differing only in this field would share "
                            "one programmed state"
                        ),
                    )
                )
            findings.extend(self._check_fault_model(files, node))
        return findings

    def _missing(
        self,
        source: SourceFile,
        class_name: str,
        fields: Sequence[_Field],
        covered: Set[str],
        derivation: str,
        consequence: str,
    ) -> List[Finding]:
        findings: List[Finding] = []
        for field in fields:
            if field.compare_excluded:
                continue
            if (class_name, field.name) in ALLOWLIST:
                continue
            if field.name in covered:
                continue
            findings.append(
                Finding(
                    rule=self.name,
                    path=source.rel,
                    line=field.line,
                    col=field.col,
                    message=(
                        f"{class_name}.{field.name} is absent from "
                        f"{derivation} — {consequence}; add it to the key, "
                        f"mark it field(compare=False), or allowlist it "
                        f"with a reason in repro.analysis.rules.content_keys"
                    ),
                )
            )
        return findings

    def _check_trial_key(
        self, source: SourceFile, node: ast.ClassDef, fields: Sequence[_Field]
    ) -> List[Finding]:
        key = _method(node, "key")
        if key is None:
            return []
        body_calls = {
            leaf_name(sub.func)
            for sub in ast.walk(key)
            if isinstance(sub, ast.Call)
        }
        if "asdict" in body_calls:
            # asdict(self) serialises every field — structurally complete,
            # new fields are picked up automatically
            return []
        reads = _attribute_reads(key, of="self")
        return self._missing(
            source, "TrialSpec", fields, reads, "TrialSpec.key",
            consequence=(
                "the sweep store would treat trials differing only in this "
                "field as the same row"
            ),
        )

    def _check_fault_model(
        self, files: Sequence[SourceFile], trial_node: ast.ClassDef
    ) -> List[Finding]:
        fault = _find_class(files, "FaultModel")
        if fault is None:
            return []
        construction_kwargs: Set[str] = set()
        seen = False
        for sub in ast.walk(trial_node):
            if isinstance(sub, ast.Call) and leaf_name(sub.func) == "FaultModel":
                seen = True
                construction_kwargs |= {
                    kw.arg for kw in sub.keywords if kw.arg is not None
                }
        if not seen:
            return []
        source, node = fault
        return self._missing(
            source, "FaultModel", _class_fields(node), construction_kwargs,
            "the TrialSpec fault-model construction",
            consequence=(
                "sweeps could not key on this fault knob and rows would "
                "collide"
            ),
        )

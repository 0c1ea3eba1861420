"""Rule ``layout-discipline``: packed payloads keep layout and precision.

Contract (from the PR-7 layout-discard bugfix and the pinned-float64
digital-recombination design in ``engine/packed.py``):

* a packed payload array (bit-sliced cell levels, encoded codes, decoded
  conductances) must never pass through
  ``np.ascontiguousarray``/``np.asfortranarray`` — those silently re-copy
  the array into one fixed order and throw away the F-order layout the
  executor arranged for BLAS;
* ``payload.astype(...)`` must carry ``order="K"`` so the cast preserves
  whatever layout the payload has;
* the digital recombination of slice products is pinned to float64 —
  narrowing casts (``float32``/``float16``) on payload or recombination
  arrays are findings (compute_dtype selection happens upstream, once).

The rule is name-driven: it watches a closed set of payload/recombination
identifiers used by the engine.  Receivers that are calls
(``np.ascontiguousarray(x @ y)``) are out of scope — only named payloads
carry the invariant.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set

from repro.analysis.core import Finding, ImportMap, Rule, SourceFile, dotted, leaf_name

#: identifiers that hold packed payloads (cell levels / codes / conductances)
PAYLOAD_NAMES: Set[str] = {
    "q",
    "encoded",
    "encoded_flat",
    "_encoded",
    "levels",
    "slice_levels",
    "_levels",
    "conductances",
    "_conductances",
    "payload",
}

#: identifiers in the pinned-float64 digital-recombination region
RECOMBINATION_NAMES: Set[str] = {
    "products",
    "shifts",
    "correction",
    "estimates",
}

#: dtype leaves that narrow below the pinned float64 accumulator
NARROWING_DTYPES = {"float32", "float16", "half", "single"}

#: layout-discarding copy constructors
COPY_FUNCS = {"numpy.ascontiguousarray", "numpy.asfortranarray"}


def _receiver_name(node: ast.AST) -> Optional[str]:
    """The payload identifier of a receiver expression, if it has one.

    Unwraps subscripts so ``conductances[sel].astype(...)`` and
    ``self._encoded.astype(...)`` both resolve; Call receivers return None
    (a freshly computed temporary carries no layout contract).
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    return leaf_name(node)


def _dtype_leaf(call: ast.Call) -> Optional[str]:
    """The dtype identifier an ``astype`` call casts to, if resolvable."""
    node: Optional[ast.AST] = call.args[0] if call.args else None
    for kw in call.keywords:
        if kw.arg == "dtype":
            node = kw.value
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return leaf_name(node)


def _order_kw(call: ast.Call) -> Optional[str]:
    for kw in call.keywords:
        if kw.arg == "order" and isinstance(kw.value, ast.Constant):
            return str(kw.value.value)
    return None


class LayoutDisciplineRule(Rule):
    name = "layout-discipline"
    description = (
        'packed payloads keep their layout (astype(..., order="K"), no '
        "ascontiguousarray) and recombination stays float64"
    )

    def check(self, files: Sequence[SourceFile]) -> List[Finding]:
        findings: List[Finding] = []
        for source in files:
            imports = ImportMap(source.tree)
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                findings.extend(self._check_copy(source, node, imports))
                findings.extend(self._check_astype(source, node))
        return findings

    def _check_copy(
        self, source: SourceFile, call: ast.Call, imports: ImportMap
    ) -> List[Finding]:
        target = dotted(call.func, imports)
        if target not in COPY_FUNCS or not call.args:
            return []
        name = _receiver_name(call.args[0])
        if name not in PAYLOAD_NAMES:
            return []
        short = target.replace("numpy.", "np.")
        return [
            Finding(
                rule=self.name,
                path=source.rel,
                line=call.lineno,
                col=call.col_offset,
                message=(
                    f"{short} on packed payload '{name}' discards its "
                    f"arranged memory layout (the PR-7 F-order bug); cast "
                    f'with astype(..., order="K") or keep the view'
                ),
            )
        ]

    def _check_astype(self, source: SourceFile, call: ast.Call) -> List[Finding]:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "astype"):
            return []
        name = _receiver_name(func.value)
        if name is None:
            return []
        findings: List[Finding] = []
        if name in PAYLOAD_NAMES:
            order = _order_kw(call)
            if order != "K":
                hint = (
                    f'order="{order}" forces a fixed layout'
                    if order is not None
                    else "the default order='K' is only implicit for copies "
                    "of same-kind dtypes; state it"
                )
                findings.append(
                    Finding(
                        rule=self.name,
                        path=source.rel,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"astype on packed payload '{name}' without "
                            f'order="K" — {hint}; a silent C-order copy '
                            f"changes BLAS summation order and breaks "
                            f"bit-identical replay"
                        ),
                    )
                )
        if name in PAYLOAD_NAMES or name in RECOMBINATION_NAMES:
            dtype = _dtype_leaf(call)
            if dtype in NARROWING_DTYPES:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=source.rel,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"dtype-narrowing cast to {dtype} on '{name}' — "
                            f"digital recombination of slice products is "
                            f"pinned to float64; select compute_dtype "
                            f"upstream instead of casting here"
                        ),
                    )
                )
        return findings

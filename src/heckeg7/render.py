"""The one place that turns results into JSON text.

``dumps`` writes exactly the bytes of ``json.dumps(doc, sort_keys=True,
indent=2)``, except that a non-finite float raises InvalidParams: the
stdlib would write NaN or Infinity, which is not JSON (RFC 8259), and such
a float only comes from float arithmetic that overflowed at an extreme
point.  With ``indent`` set, the standard library runs its pure-Python
generator encoder, which yields each token through a chain of generators;
here one recursive pass appends string parts to a single list that is joined
once.  Strings go through the standard library's own (C) ASCII escaper, and
numbers through ``int.__repr__``/``float.__repr__`` as the standard library
writes them, so the output is the same byte for byte.

The ``*_as_dict`` functions give the JSON shape of parameters, condition
flags, branch diagnoses and verdicts; sweeps and the command-line layer both
use them.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .irreducibility import ConditionFlag, Verdict
from .matrix2 import Vec2
from .representation import InvalidParams, Params

_INDENT = "  "
# float.__repr__ of the non-finite floats
_NON_FINITE = frozenset({"nan", "inf", "-inf"})


def dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte.

    ``doc`` is built from dicts with str keys, lists, tuples, str, int,
    float, bool and None; any other value or key type raises TypeError,
    and a NaN or infinite float raises InvalidParams, so that no text is
    returned that is not JSON.
    """
    text = _leaf(doc)
    if text is not None:
        return text
    parts: list[str] = []
    _encode(doc, "\n", parts.append)
    return "".join(parts)


def _leaf(o) -> str | None:
    """The JSON text of a scalar or an empty container; None for a
    non-empty container."""
    if isinstance(o, float):
        text = float.__repr__(o)
        if text in _NON_FINITE:
            raise InvalidParams(
                f"a result is {text}, which JSON cannot carry: "
                "parameter magnitudes overflow the float arithmetic"
            )
        return text
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, dict):
        return None if o else "{}"
    if isinstance(o, (list, tuple)):
        return None if o else "[]"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _encode(o, newline: str, emit) -> None:
    """Emit the non-empty container ``o``; ``newline`` is the line break and
    indent of the line it closes on.  A non-str key makes ``_quote`` (or the
    sort) raise TypeError."""
    inner = newline + _INDENT
    separator = "," + inner
    if isinstance(o, dict):
        lead = "{" + inner
        for key in sorted(o):
            value = o[key]
            head = lead + _quote(key) + ": "
            text = _leaf(value)
            if text is None:
                emit(head)
                _encode(value, inner, emit)
            else:
                emit(head + text)
            lead = separator
        emit(newline + "}")
    else:
        lead = "[" + inner
        for value in o:
            text = _leaf(value)
            if text is None:
                emit(lead)
                _encode(value, inner, emit)
            else:
                emit(lead + text)
            lead = separator
        emit(newline + "]")


# ---------------------------------------------------------------------------
# JSON shapes of results

def complex_as_dict(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def vec_as_dict(v: Vec2 | None) -> list | None:
    if v is None:
        return None
    return [complex_as_dict(v[0]), complex_as_dict(v[1])]


def params_as_dict(p: Params) -> dict:
    return {name: complex_as_dict(v) for name, v in zip(p._fields, p) if v is not None}


def flag_as_dict(f: ConditionFlag) -> dict:
    return {
        "condition": f.name,
        "lhs": complex_as_dict(f.lhs),
        "rhs": complex_as_dict(f.rhs),
        "holds": f.equal,
    }


def diagnosis_as_dict(v: Verdict) -> dict | None:
    """The branch diagnosis of v; the note and the flipped sign follow from
    the verdict."""
    d = v.branch_diagnosis
    if d is None:
        return None
    return {
        "note": (
            "disagreement disappears on the flipped branch"
            if d.resolved
            else "the flipped branch does not explain the disagreement"
        ),
        "flipped-r-sign": -v.r_sign,
        "flipped-oracle-decision": d.flipped_oracle_decision,
        "resolved": d.resolved,
        "flipped-invariant-vector": vec_as_dict(d.flipped_invariant_vector),
    }


def verdict_as_dict(v: Verdict) -> dict:
    return {
        "regime": v.regime,
        "r-sign": v.r_sign,
        "tolerance": v.tolerance,
        "theorem-decision": v.theorem_decision,
        "conditions": [flag_as_dict(f) for f in v.conditions],
        "oracle-decision": v.oracle_decision,
        "invariant-vector": vec_as_dict(v.invariant_vector),
        "agreement": v.agreement,
        "branch-diagnosis": diagnosis_as_dict(v),
    }

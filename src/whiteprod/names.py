"""Generator-name conventions.

Canonical names are ASCII: ``eta_4``, ``nu'``, ``Snu'``, ``alpha2(4)``,
``gamma_2R``.  Indexed families come in two surface styles, underscore
(``eta_4``) and parenthesized (``alpha2(4)``); the index is the sphere the
class lives on, so stepping a family member one suspension up increments
it.  Names whose trailing piece is not a bare integer (``gamma_2R``) are
atomic: they carry no family index.
"""

from __future__ import annotations

import re

_UNDERSCORE = re.compile(r"^([A-Za-z][A-Za-z0-9]*?'*)_([0-9]+)$")
_PAREN = re.compile(r"^([A-Za-z][A-Za-z0-9]*?'*)\(([0-9]+)\)$")


def split_name(name: str):
    """Return (family, index, style); style is '_', '()' or None."""
    m = _UNDERSCORE.match(name)
    if m:
        return m.group(1), int(m.group(2)), "_"
    m = _PAREN.match(name)
    if m:
        return m.group(1), int(m.group(2)), "()"
    return name, None, None


def join_name(family: str, index: int, style: str) -> str:
    return f"{family}_{index}" if style == "_" else f"{family}({index})"


# Unicode aliases accepted on input; output stays ASCII.
_GREEK = {
    "η": "eta", "ν": "nu", "ι": "iota", "σ": "sigma",
    "ε": "eps", "μ": "mu", "α": "alpha", "γ": "gamma",
    "ω": "w", "Σ": "S",
}
_SUBSCRIPTS = {ord("₀") + i: f"_{i}" for i in range(10)}
_MISC = {"′": "'", "∘": ".", "·": "*", "−": "-"}
_SUPERSCRIPTS = {"²": "^2", "³": "^3", "⁴": "^4"}


def fold_unicode(text: str) -> str:
    if text.isascii():
        return text  # every alias is non-ASCII
    out = []
    prev_was_name = False
    for ch in text:
        if ch in _GREEK:
            # keep adjacent greek letters from gluing into one identifier
            if prev_was_name:
                out.append(" ")
            out.append(_GREEK[ch])
            prev_was_name = True
            continue
        if ord(ch) in _SUBSCRIPTS:
            out.append(_SUBSCRIPTS[ord(ch)])
            prev_was_name = True
            continue
        if ch in _SUPERSCRIPTS:
            out.append(_SUPERSCRIPTS[ch])
            prev_was_name = False
            continue
        if ch in _MISC:
            out.append(_MISC[ch])
            prev_was_name = ch == "′"
            continue
        out.append(ch)
        prev_was_name = ch.isalnum() or ch == "'"
    return "".join(out)

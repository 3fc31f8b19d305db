"""Shared parsing/formatting helpers for parameters, window specs and artifacts."""

from __future__ import annotations

import cmath
import json
import re
from pathlib import Path
from typing import Iterable

__all__ = ["format_complex", "parse_complex", "parse_window_spec", "format_float",
           "write_csv", "write_json"]

_WINDOW_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")

# Characters of CSV lines joined into one write; bounds what a writer holds.
_CHUNK_CHARS = 1 << 16


def format_float(x: float) -> str:
    return f"{x:.17g}"


def format_complex(value: complex) -> str:
    """Render as ``a`` or ``a+bi`` with %.17g parts."""
    value = complex(value)
    if value.imag == 0.0:
        return format_float(value.real)
    return f"{value.real:.17g}{value.imag:+.17g}i"


def parse_complex(text: str) -> complex:
    """Parse ``a``, ``a+bi`` or ``a-bi`` literals (a trailing i or j); both parts must be finite."""
    cleaned = text.strip().replace(" ", "")
    try:
        value = complex(re.sub("i$", "j", cleaned))
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None
    if not cmath.isfinite(value):
        raise ValueError(f"complex literal {text!r} is not finite")
    return value


def parse_window_spec(text: str) -> Window:
    """Parse ``lo..hi`` in integer site indices (site value = index + 1/2)."""
    from .kernel import Window  # kernel imports this module for write_csv

    match = _WINDOW_RE.match(text.strip())
    if not match:
        raise ValueError(f"window spec must look like 'lo..hi', got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise ValueError(f"window spec {text!r} has lo > hi")
    return Window.from_indices(lo, hi)


def write_csv(path, header: str, lines: Iterable[str]) -> None:
    """Write ``header`` and then each of ``lines``, each ended by a newline.

    Every CSV artifact goes through here.  Lines are joined and written in
    chunks of about 64 Ki characters (a chunk ends after the line that
    reaches the bound), so neither the whole text nor its encoded copy is
    ever held.  The writers pass generators that format each line as it is
    asked for, and each distinct value once: a kernel entry's text serves
    its bitwise-equal mirror, and a draw's or a swap's text every row that
    holds the same object.
    """
    with open(path, "w") as out:
        chunk, size = [header], len(header)
        for line in lines:
            chunk.append(line)
            size += len(line)
            if size >= _CHUNK_CHARS:
                chunk.append("")
                out.write("\n".join(chunk))
                chunk, size = [], 0
        chunk.append("")
        out.write("\n".join(chunk))


def write_json(payload, path) -> None:
    """Write ``payload`` as indented JSON with a trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")

"""Shared parsing/formatting helpers for parameters, window specs and artifacts."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable

__all__ = ["format_complex", "parse_complex", "parse_window_spec", "format_float",
           "write_csv", "write_json"]

_WINDOW_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def format_float(x: float) -> str:
    return f"{x:.17g}"


def format_complex(value: complex) -> str:
    """Render as ``a`` or ``a+bi`` with %.17g parts."""
    value = complex(value)
    if value.imag == 0.0:
        return format_float(value.real)
    return f"{value.real:.17g}{value.imag:+.17g}i"


def parse_complex(text: str) -> complex:
    """Parse ``a``, ``a+bi`` or ``a-bi`` literals (also accepts j)."""
    cleaned = text.strip().replace(" ", "")
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None


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


def write_csv(path, header: str, row_format: str, rows: Iterable[tuple]) -> None:
    """Write ``header`` and then one ``row_format % row`` line per row."""
    Path(path).write_text("\n".join([header, *(row_format % row for row in rows)]) + "\n")


def write_json(payload, path) -> None:
    """Write ``payload`` as indented JSON with a trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")

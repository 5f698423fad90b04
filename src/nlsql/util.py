"""Shared text normalization, number parsing, and seeding helpers."""

from __future__ import annotations

import math
import random
import re

# A character that neither float() nor the thousands-separator retry accepts
# anywhere: not a Unicode decimal digit, sign, point, exponent, underscore,
# comma, a letter of inf / infinity / nan, or whitespace (which the retry
# can leave at an end, as in "1 ,").
_NEVER_NUMERIC = re.compile(r"[^\d\s+\-._eE,afintyAFINTY]")


def normalize_value(s: str) -> str:
    """Lowercase, trim, and collapse internal whitespace."""
    return " ".join(s.lower().split())


def parse_number(s: str) -> float | None:
    """Parse a cell or condition value as a finite number, or None.

    Thousands separators are tolerated ("1,234" -> 1234.0); NaN/inf spellings
    are rejected so dirty cells never poison comparisons.
    """
    text = s.strip()
    if not text or _NEVER_NUMERIC.search(text):
        return None
    try:
        value = float(text)
    except ValueError:
        try:
            value = float(text.replace(",", ""))
        except ValueError:
            return None
    if not math.isfinite(value):
        return None
    return value


def child_rng(*parts) -> random.Random:
    """Derive a deterministic RNG from a tuple of seed parts.

    String seeds go through CPython's stable sha512 path, so streams are
    reproducible across processes and platforms (unlike hash()-based seeding).
    """
    return random.Random("\x1f".join(str(p) for p in parts))

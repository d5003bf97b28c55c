"""Flat key = value run configuration.

Grammar: one ``key = value`` per line, ``#`` starts a comment, blank lines
are skipped.  Keys are dotted lowercase identifiers.  Two keys are
repeatable (``channel`` and ``window.q``); any other repetition is an
error.  Numbers must be finite (nan and inf are rejected).  Every accessor
records the key it reads, and ``check_all_read`` rejects an entry no
accessor read, so a key is valid exactly when the run reads it.  All parse
and validation failures raise ConfigError carrying the offending line
number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = ["ConfigError", "Config"]

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
_REQUIRED = object()

REPEATABLE = {"channel", "window.q"}


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.message = message
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class _Entry:
    key: str
    raw: str
    line: int


class Config:
    """Parsed entries plus typed, validating accessors."""

    def __init__(self, entries: list):
        self.entries = entries
        self._read: set = set()
        self._by_key: dict = {}
        for e in entries:
            self._by_key.setdefault(e.key, []).append(e)
        for key, group in self._by_key.items():
            if key not in REPEATABLE and len(group) > 1:
                raise ConfigError(f"key {key!r} given more than once", group[1].line)

    @classmethod
    def from_text(cls, text: str) -> "Config":
        entries = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError("expected 'key = value'", lineno)
            key, _, raw = body.partition("=")
            key = key.strip()
            raw = raw.strip()
            if not _KEY_RE.match(key):
                raise ConfigError(f"malformed key {key!r}", lineno)
            if not raw:
                raise ConfigError(f"empty value for key {key!r}", lineno)
            entries.append(_Entry(key, raw, lineno))
        return cls(entries)

    @classmethod
    def load(cls, path) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def unread(self) -> list:
        """The entries no accessor has read so far, in file order."""
        return [e for e in self.entries if e.key not in self._read]

    def check_all_read(self) -> None:
        """Reject the first entry no accessor has read."""
        unread = self.unread()
        if unread:
            raise ConfigError(f"unknown key {unread[0].key!r}", unread[0].line)

    def _group(self, key: str) -> list:
        self._read.add(key)
        return self._by_key.get(key, [])

    def _one(self, key: str, default):
        group = self._group(key)
        if not group:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            return None, default
        return group[0], None

    def str(self, key: str, default=_REQUIRED, choices=None) -> str:
        entry, fallback = self._one(key, default)
        if entry is None:
            value = fallback
        else:
            value = entry.raw
        if choices is not None and value not in choices:
            raise ConfigError(
                f"key {key!r} must be one of {sorted(choices)}, got {value!r}",
                entry.line if entry else None)
        return value

    def float(self, key: str, default=_REQUIRED) -> float:
        entry, fallback = self._one(key, default)
        if entry is None:
            return fallback
        return self._number(entry, entry.raw, "a number")

    def int(self, key: str, default=_REQUIRED) -> int:
        entry, fallback = self._one(key, default)
        if entry is None:
            return fallback
        try:
            return int(entry.raw)
        except ValueError:
            raise ConfigError(f"key {key!r} needs an integer, got {entry.raw!r}",
                              entry.line) from None

    def floats(self, key: str, n: int, default=_REQUIRED) -> tuple:
        entry, fallback = self._one(key, default)
        if entry is None:
            return fallback
        return self._parse_vector(entry, n)

    def float_list(self, key: str) -> list:
        """All values of a repeatable scalar key, in file order."""
        return [self._number(e, e.raw, "a number") for e in self._group(key)]

    def vector_list(self, key: str, n: int) -> list:
        return [self._parse_vector(e, n) for e in self._group(key)]

    @staticmethod
    def _parse_vector(entry: _Entry, n: int) -> tuple:
        parts = entry.raw.split()
        if len(parts) != n:
            raise ConfigError(
                f"key {entry.key!r} needs {n} numbers separated by spaces, "
                f"got {len(parts)}", entry.line)
        return tuple(Config._number(entry, p, "numbers") for p in parts)

    @staticmethod
    def _number(entry: _Entry, text: str, what: str) -> float:
        """One finite float from ``text`` (part of ``entry``'s value)."""
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"key {entry.key!r} needs {what}, got {entry.raw!r}",
                              entry.line) from None
        if not math.isfinite(value):
            raise ConfigError(f"key {entry.key!r} needs finite values, got {entry.raw!r}",
                              entry.line)
        return value

    def echo(self) -> dict:
        """Raw entries for reproducibility sidecars (repeatables as lists)."""
        out: dict = {}
        for e in self.entries:
            if e.key in REPEATABLE:
                out.setdefault(e.key, []).append(e.raw)
            else:
                out[e.key] = e.raw
        return out

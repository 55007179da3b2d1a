"""Structured findings.

A :class:`Finding` is one rule violation at one location.  The only way
to silence one is an inline ``# repro: allow[RULE]`` comment at that
location (see :mod:`repro.check.sources`), so every exception sits next
to the code it excuses, with its justification.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple


class Finding:
    """One rule violation: where, which rule, and what is wrong."""

    __slots__ = ("rule", "path", "line", "message")

    def __init__(self, rule: str, path: str, line: int, message: str) -> None:
        self.rule = rule
        self.path = path.replace("\\", "/")
        self.line = line
        self.message = message

    def sort_key(self) -> Tuple[str, int, str, str]:
        """Stable ordering: by path, then line, then rule."""
        return (self.path, self.line, self.rule, self.message)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (the CI report entry)."""
        return {"rule": self.rule, "path": self.path,
                "line": self.line, "message": self.message}

    def render(self) -> str:
        """One-line ``path:line: RULE message`` form."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Finding):
            return NotImplemented
        return (self.rule, self.path, self.line, self.message) == \
               (other.rule, other.path, other.line, other.message)

    def __hash__(self) -> int:
        return hash((self.rule, self.path, self.line, self.message))

    def __repr__(self) -> str:
        return f"Finding({self.render()!r})"

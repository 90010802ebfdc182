"""The finding record and ``# lint: allow-<rule>`` waivers.

Every rule of ``repro lint`` produces the same :class:`Finding` type.
The one way to suppress a finding is a trailing ``# lint:
allow-<rule>`` comment on the flagged line: it waives one rule on one
source line, and is grep-able and reviewed with the code it excuses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Set

_WAIVER_RE = re.compile(r"#\s*lint:\s*allow-([a-z0-9\-]+)")


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding at a specific source line."""

    path: str
    line: int
    rule: str
    message: str
    #: which pass produced the finding (``house-rules`` / ``aliasing``);
    #: cosmetic in text output, kept in JSON.
    pass_name: str = ""

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "pass": self.pass_name,
        }


def waivers_by_line(source: str) -> Dict[int, Set[str]]:
    """``# lint: allow-<rule>`` comments, keyed by 1-based line number."""
    waivers: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in _WAIVER_RE.finditer(line):
            waivers.setdefault(lineno, set()).add(match.group(1))
    return waivers


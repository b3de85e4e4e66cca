"""Exceptions and the structured warning record shared across the package."""

from __future__ import annotations

from typing import NamedTuple


def clip(text: str, limit: int = 40) -> str:
    return text if len(text) <= limit else text[:limit] + "..."


class AnalysisError(Exception):
    """Base class for every fatal condition raised by this package."""


class ParseError(AnalysisError):
    """Source text could not be analyzed.  Carries path/line/column;
    `detail` is the message with line and column but without the path,
    for warnings that name the path themselves.  `element` names the XML
    element that holds an embedded ST fragment; line and column then
    count from the start of the fragment."""

    def __init__(self, message: str, path: str = "", line: int = 0, column: int = 0, element: str = ""):
        self.message = message
        self.path = path
        self.line = line
        self.column = column
        self.element = element
        detail = "%d:%d: %s" % (line, column, message) if line else message
        self.detail = "%s: %s" % (element, detail) if element else detail
        super().__init__("%s%s%s" % (path or "<source>", ":" if line and not element else ": ", self.detail))


class UnterminatedComment(ParseError):
    pass


class UnterminatedString(ParseError):
    pass


class XmlMalformed(AnalysisError):
    """A project file is not well-formed XML; the whole file is rejected.
    `detail` is the parser's message without the path."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        self.detail = message
        super().__init__("%s: %s" % (path or "<xml>", message))


class EmptySample(AnalysisError):
    """Aggregation was asked to summarize zero POUs."""


class WeightSumViolation(AnalysisError):
    """A weight profile does not sum to exactly 1."""


class NoPousFound(AnalysisError):
    """The input paths produced no analyzable POU at all.  `warnings` are
    the load's, which say why each file or POU was skipped."""

    def __init__(self, message: str, warnings=()):
        super().__init__(message)
        self.warnings = list(warnings)


class InvalidConfig(AnalysisError):
    """The configuration file is malformed or violates a constraint."""


# Warning codes that mean a POU or file was dropped from the report.
SKIP_CODES = frozenset(
    {
        "il-body-skipped",
        "pou-parse-error",
        "xml-malformed",
        "body-language-unsupported",
    }
)


class AnalysisWarning(NamedTuple):
    """Non-fatal diagnostic attached to a run.

    code is a stable machine-readable slug; path/pou narrow the context
    when known.
    """

    code: str
    message: str
    path: str = ""
    pou: str = ""

    def render(self) -> str:
        ctx = ":".join(p for p in (self.path, self.pou) if p)
        return "[%s] %s%s" % (self.code, ctx + ": " if ctx else "", self.message)

"""Exception types shared across the pipeline stages."""


class TraceDistillError(Exception):
    """Base class for all package errors."""


class SchemaError(TraceDistillError):
    """A record in an input file violates the expected schema.

    The message names the offending field (and row index where known).
    """


class SceneLookupError(TraceDistillError):
    """A tool call referenced a scene or patch that does not exist."""


class PositionedError(TraceDistillError):
    """An error at a line and column of DSL source."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class LexError(PositionedError):
    """Lexical error in DSL source (unknown token, bad indentation)."""


class DslSyntaxError(PositionedError):
    """Syntax error in DSL source, with position and expected-token hint."""


class GenerationError(TraceDistillError):
    """No program template matches the question."""


class ConfigError(TraceDistillError):
    """Bad pipeline or student configuration."""


class EmissionError(TraceDistillError):
    """Dataset emission failed (e.g. rationale references a missing query)."""


class StageError(TraceDistillError):
    """A pipeline stage failed; carries the stage name and row index."""

    def __init__(self, stage: str, message: str, row: int | None = None):
        where = f"{stage}" if row is None else f"{stage} row {row}"
        super().__init__(f"[{where}] {message}")
        self.stage = stage
        self.row = row

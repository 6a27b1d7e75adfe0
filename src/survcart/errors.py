"""Exception types shared across the package."""


class SurvcartError(Exception):
    """Base class for all package errors."""


class DataError(SurvcartError):
    """Problems with input data (parsing, schema, empty input)."""


class DegenerateComponentError(SurvcartError):
    """A likelihood component has no contributing observations."""


class NonConvergenceError(SurvcartError):
    """An iterative fit failed to converge."""


class InvalidTimeError(DataError):
    """A time value is outside the family's support."""


class SchemaMismatchError(DataError):
    """Covariates or columns do not match the declared schema."""


class TooFewGroupsError(SurvcartError):
    """An instability test needs at least two distinct covariate values."""


class SingularInformationError(SurvcartError):
    """The information matrix is numerically singular."""


class EmptyGroupError(SurvcartError):
    """A two-sample statistic was handed an empty group."""


class EmptyInputError(SurvcartError):
    """An operation was handed an empty collection."""


class MissingValueError(SurvcartError):
    """A covariate value needed for routing is missing."""


class UnknownVariableError(SurvcartError):
    """A partitioning variable is not in the schema."""


class TruthMismatchError(SurvcartError):
    """Supplied ground truth does not line up with the dataset."""


class ParseError(DataError):
    """A cell failed to parse; carries row and column for the message."""

    def __init__(self, row: int, column: str, detail: str):
        super().__init__(f"row {row}, column {column!r}: {detail}")
        self.row = row
        self.column = column


class MissingColumnError(DataError):
    """A required column is absent from the file."""


class EmptyDatasetError(DataError):
    """The file contained no data rows."""


class SpecParseError(SurvcartError):
    """An experiment spec file is malformed."""

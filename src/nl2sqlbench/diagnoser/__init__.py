"""SQL parsing and error-taxonomy diagnosis for incorrect predictions."""

from .classify import (
    CATEGORIES,
    CATEGORY_BY_SUBTYPE,
    SUBTYPES_BY_CATEGORY,
    ErrorLabel,
    classify_error,
    schema_column_map,
)
from .sqlast import parse_sql, walk

__all__ = [
    "CATEGORIES",
    "CATEGORY_BY_SUBTYPE",
    "SUBTYPES_BY_CATEGORY",
    "ErrorLabel",
    "classify_error",
    "schema_column_map",
    "parse_sql",
    "walk",
]

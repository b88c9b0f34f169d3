"""Database layer: tables, queries, catalog, and the Database facade.

Implements the Section 4 operations over AVQ-coded storage: index-driven
range selection, and insert/delete/update confined to the affected block.
"""

from repro.db.aggregates import AggregateResult, aggregate
from repro.db.catalog import Catalog
from repro.db.join import (
    JoinResult,
    block_nested_loop_join,
    index_nested_loop_join,
)
from repro.db.database import Database
from repro.db.planner import AccessPlan
from repro.db.query import QueryResult, RangeQuery
from repro.db.stats import AttributeHistogram
from repro.db.table import Table
from repro.db.transactions import Transaction

__all__ = [
    "Catalog",
    "Database",
    "Table",
    "RangeQuery",
    "QueryResult",
    "AccessPlan",
    "AttributeHistogram",
    "aggregate",
    "AggregateResult",
    "JoinResult",
    "index_nested_loop_join",
    "block_nested_loop_join",
    "Transaction",
]

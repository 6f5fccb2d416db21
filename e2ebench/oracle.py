"""Independent checks of the program's reports.

Everything here is computed from the generated CSV text alone: the
program's reports are compared against these computations and against
properties of the methods (minimality, soundness), never against a
stored copy of an earlier output.

Semantics followed (docs/ALGORITHMS.md, src/ind/*.h):
  * a value is the canonical text of the typed CSV field (integers as
    decimal, doubles as %.17g, strings verbatim); an empty field is NULL;
  * unary IND A [= B: A has a non-NULL value, B is non-empty and unique
    (distinct == non-NULL count), A != B, and the distinct non-NULL values
    of A are a subset of those of B; types are not compared;
  * n-ary IND: the set of A-tuples without NULLs is a subset of the set
    of B-tuples (MATCH SIMPLE);
  * UCC: the distinct NULL-free projection has as many tuples as the
    table has rows; minimal; at most 4 columns;
  * FD X -> A: no X-group (rows without NULLs in X and A) has two
    distinct A values; minimal; |X| <= 2.
The generated dumps contain no NULLs, so the FD check by GROUP BY and the
program's distinct-count formulation coincide.
"""

import csv
import itertools
import os
import sqlite3

csv.field_size_limit(1 << 30)


class CheckError(Exception):
    """A report disagrees with the independent computation."""


def _canonical_column(texts, type_name):
    if type_name == "integer":
        return [str(int(t)) if t else None for t in texts]
    if type_name == "double":
        return ["%.17g" % float(t) if t else None for t in texts]
    return [t if t else None for t in texts]


class Table:
    """One table, stored column by column as canonical strings (None =
    NULL)."""

    def __init__(self, name, columns, types, data):
        self.name = name
        self.columns = columns
        self.types = types
        self.data = data

    @property
    def row_count(self):
        return len(self.data[0]) if self.data else 0

    def column_values(self, index):
        return self.data[index]

    def copy(self):
        return Table(self.name, self.columns, self.types, [list(c) for c in self.data])


def read_csv_table(path):
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, newline="") as f:
        reader = csv.reader(f)
        columns = next(reader)
        types = next(reader)
        if not types or not types[0].startswith("#types:"):
            raise CheckError("%s: missing #types line" % path)
        types[0] = types[0][len("#types:"):]
        records = list(reader)
    if any(len(r) != len(columns) for r in records):
        raise CheckError("%s: ragged rows" % path)
    raw = list(zip(*records)) if records else [()] * len(columns)
    data = [_canonical_column(col, t) for col, t in zip(raw, types)]
    return Table(name, columns, types, data)


def load_dump(directory):
    """{table name: Table} for every *.csv in `directory`."""
    tables = {}
    for file_name in sorted(os.listdir(directory)):
        if file_name.endswith(".csv"):
            table = read_csv_table(os.path.join(directory, file_name))
            tables[table.name] = table
    return tables


def copy_dump(tables):
    return {name: t.copy() for name, t in tables.items()}


def append_rows(tables, delta_dir):
    """Applies a delta dump (as `spider import --append` does) in place."""
    for name, delta in load_dump(delta_dir).items():
        if name not in tables:
            tables[name] = delta
            continue
        if delta.columns != tables[name].columns:
            raise CheckError("delta %s redeclares columns" % name)
        for column, extra in zip(tables[name].data, delta.data):
            column.extend(extra)


# ---- unary INDs -------------------------------------------------------------

def unary_inds(tables):
    """The exact satisfied unary INDs as a set of ("t.c", "t.c") pairs."""
    distinct = {}
    unique = []
    for table in tables.values():
        for i, column in enumerate(table.columns):
            values = table.column_values(i)
            present = set(values)
            present.discard(None)
            if not present:
                continue
            attr = table.name + "." + column
            distinct[attr] = present
            if len(present) == len(values) - values.count(None):
                unique.append(attr)
    result = set()
    for dep, values in distinct.items():
        for ref in unique:
            if ref != dep and len(values) <= len(distinct[ref]) and \
                    values <= distinct[ref]:
                result.add((dep, ref))
    return result


def reported_unary(report):
    return {(i["dependent"], i["referenced"]) for i in report["satisfied_inds"]}


def check_unary(report, tables, label, expected=None):
    if expected is None:
        expected = unary_inds(tables)
    got = reported_unary(report)
    if len(got) != len(report["satisfied_inds"]):
        raise CheckError("%s: duplicate INDs in the report" % label)
    if got != expected:
        missing = sorted(expected - got)[:3]
        spurious = sorted(got - expected)[:3]
        raise CheckError("%s: %d INDs missing (e.g. %s), %d spurious (e.g. %s)"
                         % (label, len(expected - got), missing,
                            len(got - expected), spurious))
    if not report.get("finished", False):
        raise CheckError("%s: run did not finish" % label)


def check_warm(report, label):
    if report["verdicts_reused"] != report["candidates"]:
        raise CheckError("%s: verdicts_reused %d != candidates %d"
                         % (label, report["verdicts_reused"], report["candidates"]))
    if report["tuples_read"] != 0:
        raise CheckError("%s: warm run read %d tuples" % (label, report["tuples_read"]))


# ---- n-ary INDs -------------------------------------------------------------

def projection(tables, attrs):
    """The NULL-free tuples of `attrs` (columns of one table)."""
    table_name = attrs[0].split(".", 1)[0]
    table = tables[table_name]
    idx = [table.columns.index(a.split(".", 1)[1]) for a in attrs]
    if any(a.split(".", 1)[0] != table_name for a in attrs):
        raise CheckError("n-ary side spans tables: %s" % attrs)
    return {t for t in zip(*(table.column_values(i) for i in idx)) if None not in t}


def check_nary(report, tables, label):
    """Every reported n-ary IND holds at tuple level."""
    if not report.get("nary_finished", False):
        raise CheckError("%s: n-ary run did not finish" % label)
    for ind in report["nary_inds"]:
        dep, ref = ind["dependent"], ind["referenced"]
        if len(dep) != len(ref) or len(dep) < 2:
            raise CheckError("%s: malformed n-ary IND %s" % (label, ind))
        if not projection(tables, dep) <= projection(tables, ref):
            raise CheckError("%s: n-ary IND does not hold: %s" % (label, ind))


# ---- UCCs and FDs against SQLite ---------------------------------------------

class Sql:
    """An in-memory SQLite copy of the dump (all columns as TEXT)."""

    def __init__(self, tables):
        self.db = sqlite3.connect(":memory:")
        self.tables = tables
        self.rows = {}
        self._distinct = {}
        for table in tables.values():
            cols = ", ".join('"%s" TEXT' % c for c in table.columns)
            self.db.execute('CREATE TABLE "%s" (%s)' % (table.name, cols))
            marks = ", ".join("?" for _ in table.columns)
            self.db.executemany('INSERT INTO "%s" VALUES (%s)' % (table.name, marks),
                                zip(*table.data))
            self.rows[table.name] = table.row_count

    @staticmethod
    def _not_null(cols):
        return " AND ".join('"%s" IS NOT NULL' % c for c in cols)

    def distinct(self, table, cols):
        """The number of distinct tuples of `cols` over the rows without
        NULLs in them (COUNT(DISTINCT), computed from the columns)."""
        key = (table, tuple(sorted(cols)))
        if key not in self._distinct:
            t = self.tables[table]
            columns = [t.column_values(t.columns.index(c)) for c in key[1]]
            seen = set(zip(*columns)) if len(columns) > 1 else set(columns[0])
            if any(None in c for c in columns):
                seen = {v for v in seen if v is not None and None not in v}
            self._distinct[key] = len(seen)
        return self._distinct[key]

    def unique(self, table, cols):
        return self.rows[table] > 0 and self.distinct(table, cols) == self.rows[table]

    def fd_violations(self, table, lhs, rhs_list):
        """For each rhs, whether some lhs-group of rows (without NULLs) has
        two distinct rhs values: one GROUP BY over the table (COUNT
        DISTINCT skips NULL rhs values)."""
        q = ", ".join('"%s"' % c for c in lhs)
        maxes = ", ".join("MAX(c%d)" % i for i in range(len(rhs_list)))
        names = ", ".join('COUNT(DISTINCT "%s") AS c%d' % (r, i)
                          for i, r in enumerate(rhs_list))
        row = self.db.execute(
            'SELECT %s FROM (SELECT %s FROM "%s" WHERE %s GROUP BY %s)'
            % (maxes, names, table, self._not_null(lhs), q)).fetchone()
        return [m is not None and m > 1 for m in row]

    def fd_holds_by_count(self, table, lhs, rhs):
        return self.distinct(table, list(lhs) + [rhs]) <= self.distinct(table, lhs)


def check_uccs(report, sql, label, max_arity=4):
    got = {(u["table"], tuple(u["columns"])) for u in report["uccs"]}
    if len(got) != len(report["uccs"]):
        raise CheckError("%s: duplicate UCCs" % label)
    for table, cols in got:
        if not 1 <= len(cols) <= max_arity:
            raise CheckError("%s: UCC arity out of range %s" % (label, cols))
        if not sql.unique(table, cols):
            raise CheckError("%s: not unique: %s%s" % (label, table, cols))
        for sub in itertools.combinations(cols, len(cols) - 1):
            if sub and sql.unique(table, sub):
                raise CheckError("%s: not minimal: %s%s" % (label, table, cols))
    for table in sql.tables.values():
        for col in table.columns:
            if sql.unique(table.name, [col]) and (table.name, (col,)) not in got:
                raise CheckError("%s: missing unique column %s.%s"
                                 % (label, table.name, col))


def check_fds(report, sql, label, max_lhs=2):
    got = {(f["table"], tuple(f["lhs"]), f["rhs"]) for f in report["fds"]}
    if len(got) != len(report["fds"]):
        raise CheckError("%s: duplicate FDs" % label)
    by_lhs = {}
    for table, lhs, rhs in got:
        if not 1 <= len(lhs) <= max_lhs or rhs in lhs:
            raise CheckError("%s: malformed FD %s%s->%s" % (label, table, lhs, rhs))
        by_lhs.setdefault((table, lhs), []).append(rhs)
        for sub in itertools.combinations(lhs, len(lhs) - 1):
            if sub and sql.fd_holds_by_count(table, sub, rhs):
                raise CheckError("%s: FD not minimal: %s%s->%s"
                                 % (label, table, lhs, rhs))
    for (table, lhs), rhs_list in sorted(by_lhs.items()):
        if sql.unique(table, lhs):
            continue  # a unique determinant has one row per group
        for rhs, violated in zip(rhs_list, sql.fd_violations(table, lhs, rhs_list)):
            if violated:
                raise CheckError("%s: FD does not hold: %s%s->%s"
                                 % (label, table, lhs, rhs))
    # Completeness on the first level: every single-column FD is reported.
    for table in sql.tables.values():
        for x, a in itertools.permutations(table.columns, 2):
            if sql.fd_holds_by_count(table.name, [x], a) and \
                    (table.name, (x,), a) not in got:
                raise CheckError("%s: missing FD %s.%s->%s" % (label, table.name, x, a))


# ---- CLI / daemon parity ------------------------------------------------------

TIMING_KEYS = {"seconds"}


def check_same_report(daemon, cli, label):
    a = {k: v for k, v in daemon.items() if k not in TIMING_KEYS}
    b = {k: v for k, v in cli.items() if k not in TIMING_KEYS}
    if a != b:
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        raise CheckError("%s: daemon and CLI reports differ in %s" % (label, diff))

#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 e2ebench/selftest.py

Run from the repository root. Profiles one small generated dump with the
real spider_cli, confirms every check in oracle.py accepts the program's
reports, then confirms each check rejects a report with one result
dropped, one spurious result added, or one FD altered. Exits 0 only if
every mutation is rejected.
"""

import copy
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracle  # noqa: E402
import run  # noqa: E402


def profile(ws, *extra):
    out = subprocess.run([run.CLI, "profile", ws, "--json", "--threads=1"] + list(extra),
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def expect_reject(name, check, *args):
    try:
        check(*args)
    except oracle.CheckError as e:
        print("rejected %-28s %s" % (name, e))
        return
    raise SystemExit("selftest: the check accepted a mutated report (%s)" % name)


def main():
    run.build()
    base = os.path.join(run.WORK, "selftest")
    csv_dir = os.path.join(base, "csv", "db")
    ws = os.path.join(base, "ws")
    os.makedirs(run.WORK, exist_ok=True)
    run.remove_scratch(base)
    run.generate("tall-narrow", 120, 0, 7, csv_dir)
    subprocess.run([run.CLI, "import", csv_dir, "--workspace=" + ws, "--backend=disk"],
                   check=True, capture_output=True)
    tables = oracle.load_dump(csv_dir)
    cold = profile(ws, "--approach=spider-merge")
    warm = profile(ws, "--approach=spider-merge")
    nary = profile(ws, "--approach=nary")
    ucc = profile(ws, "--kind=ucc")
    fd = profile(ws, "--kind=fd")
    sql = oracle.Sql(tables)

    # The program's own reports pass.
    oracle.check_unary(cold, tables, "cold")
    oracle.check_warm(warm, "warm")
    oracle.check_nary(nary, tables, "nary")
    oracle.check_uccs(ucc, sql, "ucc")
    oracle.check_fds(fd, sql, "fd")
    oracle.check_same_report(dict(cold, seconds=0), cold, "parity")

    # One IND dropped.
    bad = copy.deepcopy(cold)
    bad["satisfied_inds"].pop(len(bad["satisfied_inds"]) // 2)
    expect_reject("IND dropped", oracle.check_unary, bad, tables, "mutant")

    # One spurious IND added: the first attribute pair that does not hold.
    holds = oracle.unary_inds(tables)
    attrs = sorted({a for pair in holds for a in pair})
    spurious = next((d, r) for d in attrs for r in attrs if d != r and (d, r) not in holds)
    bad = copy.deepcopy(cold)
    bad["satisfied_inds"].append({"dependent": spurious[0], "referenced": spurious[1]})
    expect_reject("spurious IND added", oracle.check_unary, bad, tables, "mutant")

    # A cold run presented as warm.
    expect_reject("cold run as warm", oracle.check_warm, cold, "mutant")

    # One n-ary IND whose referenced side is swapped into a pair that fails.
    bad = copy.deepcopy(nary)
    for ind in bad["nary_inds"]:
        ref = ind["referenced"]
        swapped = [ref[1], ref[0]] + ref[2:]
        if not oracle.projection(tables, ind["dependent"]) <= oracle.projection(tables, swapped):
            ind["referenced"] = swapped
            break
    else:
        raise SystemExit("selftest: no n-ary IND to mutate")
    expect_reject("n-ary IND altered", oracle.check_nary, bad, tables, "mutant")

    # One FD altered: its right-hand side moved to a column it does not
    # determine.
    bad = copy.deepcopy(fd)
    for f in bad["fds"]:
        columns = tables[f["table"]].columns
        others = [c for c in columns if c not in f["lhs"] and c != f["rhs"] and
                  not sql.fd_holds_by_count(f["table"], f["lhs"], c)]
        if others:
            f["rhs"] = others[0]
            break
    expect_reject("FD altered", oracle.check_fds, bad, sql, "mutant")

    # One single-column FD dropped.
    bad = copy.deepcopy(fd)
    bad["fds"] = [f for f in bad["fds"] if len(f["lhs"]) != 1] + \
        [f for f in bad["fds"] if len(f["lhs"]) == 1][1:]
    expect_reject("FD dropped", oracle.check_fds, bad, sql, "mutant")

    # One UCC dropped, and one non-unique column added as a UCC.
    bad = copy.deepcopy(ucc)
    bad["uccs"] = [u for u in bad["uccs"] if len(u["columns"]) != 1] + \
        [u for u in bad["uccs"] if len(u["columns"]) == 1][1:]
    expect_reject("UCC dropped", oracle.check_uccs, bad, sql, "mutant")
    bad = copy.deepcopy(ucc)
    bad["uccs"].append({"table": "pdb_atom_site", "columns": ["entry_id"]})
    expect_reject("non-unique UCC added", oracle.check_uccs, bad, sql, "mutant")

    # A daemon report that differs from the CLI's beyond its timings.
    bad = copy.deepcopy(cold)
    bad["satisfied_inds"] = bad["satisfied_inds"][1:]
    expect_reject("daemon/CLI mismatch", oracle.check_same_report, bad, cold, "mutant")

    run.remove_scratch(base)
    print("selftest: the program's reports pass and every mutation is rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())

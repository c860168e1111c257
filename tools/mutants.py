"""Run a fixed table of source mutants and check that each one fails a test.

Each mutant is one edit of one file under ``src/inforest``: an exact old
text, which must occur once in the source, and the text that replaces it.
The tool copies the checkout it lies in, without ``.git``, into a
temporary directory, checks that the named tests pass there unmutated,
then applies each mutant in turn and runs its named tests with pytest. A
mutant is killed when pytest reports failed tests. The run fails when a
mutant survives, when its old text is missing from the source, or when
pytest ends any other way (a collection error, for one).

It prints one table row per mutant: its name, the number of tests that
failed, and the verdict. The run needs one pytest process per mutant, so
it is not part of the tier-1 suite; ``tests/test_mutants.py`` checks
there that each old text still occurs once in its file.

Usage: ``python tools/mutants.py [name ...]`` runs every mutant, or only
those named.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/inforest
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the checkout


MUTANTS = (
    Mutant(
        "exact-row-slack-1",
        "bottleneck.py",
        "_ROW_SLACK = {EXACT: 1 + 16 * 2.0**-53, FLOAT: 1 + 8e-9}",
        "_ROW_SLACK = {EXACT: 1, FLOAT: 1 + 8e-9}",
        ("tests/test_bottleneck.py",),
    ),
    Mutant(
        "float-row-slack-1",
        "bottleneck.py",
        "_ROW_SLACK = {EXACT: 1 + 16 * 2.0**-53, FLOAT: 1 + 8e-9}",
        "_ROW_SLACK = {EXACT: 1 + 16 * 2.0**-53, FLOAT: 1}",
        ("tests/test_bottleneck.py",),
    ),
    Mutant(
        "exact-bound-reads-raw-rows",
        "bottleneck.py",
        "    values = _bound_ratios(rows) if mode == EXACT else rows\n",
        "    values = rows if mode == EXACT else rows\n",
        ("tests/test_bottleneck.py",),
    ),
    Mutant(
        "reversed-product-count-dropped",
        "bottleneck.py",
        "                inconsistent += sum(map(operator.gt, lhs, rhs))\n",
        "                pass\n",
        ("tests/test_bottleneck.py",),
    ),
    Mutant(
        "settled-row-separator-bits-dropped",
        "bottleneck.py",
        "            inconsistent += len(bits) - 2 * sum(bits)\n",
        "",
        ("tests/test_bottleneck.py",),
    ),
    Mutant(
        "declined-row-separator-bit-dropped",
        "bottleneck.py",
        "-1 if masks_i[k] >> j & 1 else 1",
        "1",
        ("tests/test_bottleneck.py",),
    ),
    Mutant(
        "report-iteration-reads-bit-k",
        "bottleneck.py",
        "bool(masks[i][k] >> j & 1)",
        "bool(masks[i][k] >> k & 1)",
        ("tests/test_bottleneck.py",),
    ),
    Mutant(
        "symmetry-self-check-dropped",
        "bottleneck.py",
        "    if not symmetric and graph.is_symmetric():",
        "    if False:",
        ("tests/test_bottleneck.py",),
    ),
    Mutant(
        "gth-pivot-self-check-dropped",
        "forest.py",
        "        if exact and not 0 < pivot == pivot_row[k]:",
        "        if False:",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "float-zero-guard-of-F-dropped",
        "forest.py",
        "[[total * v if v else v for v in row]",
        "[[total * v for v in row]",
        ("tests/test_forest.py",),
    ),
    Mutant(
        "dominator-own-bit-dropped",
        "graph.py",
        "                meet |= 1 << v\n",
        "",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "max-out-weight-halved",
        "graph.py",
        "        return self.laplacian().max_abs()\n",
        "        return self.laplacian().max_abs() / 2\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "series-exact-scale-dropped",
        "routes.py",
        "total = total.scaled(d ** (1 << t)) + (power @ block if t else power)",
        "total = total + (power @ block if t else power)",
        ("tests/test_routes.py",),
    ),
    Mutant(
        "reachable-reads-predecessors",
        "graph.py",
        "self._successors))",
        "self._predecessors))",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "step-diagonal-clamp-dropped",
        "routes.py",
        "            row[i] = 0.0\n",
        "            pass\n",
        ("tests/test_routes.py",),
    ),
    Mutant(
        "zero-factor-row-takes-fused-pass",
        "forest.py",
        """f"if {' and '.join(f'a{j}' for j in m)}:",""",
        """"if True:",""",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "zero-term-taken",
        "forest.py",
        '"        if g:',
        '"        if True:',
        ("tests/test_solver.py",),
    ),
    Mutant(
        "float-factors-divide-by-last-pivot",
        "forest.py",
        "f'a{j} / p{j}, '",
        "f'a{j} / p{width - 1}, '",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "block-divides-by-first-pivot",
        "forest.py",
        "(rows[:k] + rows[end:], rows, k, q, pivots)",
        "(rows[:k] + rows[end:], rows, k, pivots[k], pivots)",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "block-pass-reads-unrun-block",
        "forest.py",
        "        run(k, end, q)\n        _row_pass(size, exact)(rows[:k] + rows[end:], rows,",
        "        early = [row[:] for row in rows]\n        run(k, end, q)\n"
        "        _row_pass(size, exact)(rows[:k] + rows[end:], early,",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "pivot-row-pass-divides-by-q",
        "forest.py",
        "        p = pivots[-1]\n",
        "        p = q\n",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "pivot-row-pass-reads-unrun-second-half",
        "forest.py",
        "        run(mid, end, p)\n        half(rows[k:mid], rows,",
        "        early = [row[:] for row in rows]\n        run(mid, end, p)\n"
        "        half(rows[k:mid], early,",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "half-pass-divides-by-block-previous",
        "forest.py",
        "half(rows[k:mid], rows, mid, p,",
        "half(rows[k:mid], rows, mid, q,",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "format-graph-sorts-whole-arcs",
        "io.py",
        "sorted(graph.arcs, key=lambda arc: (arc.tail, arc.head))",
        "sorted(graph.arcs)",
        ("tests/test_io.py",),
    ),
    Mutant(
        "arc-line-head-names-the-tail",
        "io.py",
        "bad vertex {tokens[1]!r}",
        "bad vertex {tokens[0]!r}",
        ("tests/test_io.py",),
    ),
    Mutant(
        "json-weight-type-check-dropped",
        "io.py",
        "        if not (isinstance(weight, str) or _is_int(weight)):\n",
        "        if False:\n",
        ("tests/test_io.py",),
    ),
    Mutant(
        "decomposition-avoiding-weight-dropped",
        "routes.py",
        "proximity[start, end] * weight",
        "proximity[start, end]",
        ("tests/test_routes.py",),
    ),
    Mutant(
        "decomposition-start-end-weight-dropped",
        "routes.py",
        "    start_end = full[start, end] * weight\n",
        "    start_end = full[start, end]\n",
        ("tests/test_routes.py",),
    ),
    Mutant(
        "cli-imports-the-solver-up-front",
        "cli.py",
        "from .matrix import DEFAULT_MAX_TERMS",
        "from .forest import forest_matrices\nfrom .matrix import DEFAULT_MAX_TERMS",
        ("tests/test_cli.py::test_commands_load_only_the_modules_they_run",),
    ),
    Mutant(
        "routes-imports-the-solver-up-front",
        "routes.py",
        "from .graph import MultiDigraph\n",
        "from .forest import forest_matrices\nfrom .graph import MultiDigraph\n",
        ("tests/test_cli.py::test_commands_load_only_the_modules_they_run",),
    ),
    Mutant(
        "product-chunks-added-out-of-order",
        "matrix.py",
        'f"        row = [s{terms} for s,',
        'f"        row = [{terms[3:]} + s for s,',
        ("tests/test_matrix.py",),
    ),
    Mutant(
        "product-zero-start-dropped",
        "matrix.py",
        'f"        row = [0{terms} for',
        'f"        row = [{terms[3:]} for',
        ("tests/test_matrix.py",),
    ),
    Mutant(
        "scalar-overflow-to-zero",
        "matrix.py",
        "        return math.inf if value > 0 else -math.inf\n",
        "        return 0.0\n",
        ("tests/test_matrix.py", "tests/test_graph.py"),
    ),
)


def _pytest(copy: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".perfbench-out")
        shutil.copytree(ROOT, copy, ignore=skip, dirs_exist_ok=True)
        tests = tuple(dict.fromkeys(test for mutant in chosen for test in mutant.tests))
        code, output = _pytest(copy, tests)
        if code != 0:
            print(output, file=sys.stderr)
            print("the named tests fail on the unmutated source", file=sys.stderr)
            return 1
        print(f"{'mutant':<40} {'failed':>6}  verdict")
        for mutant in chosen:
            source = copy / "src" / "inforest" / mutant.path
            original = source.read_text()
            if original.count(mutant.old) != 1:
                verdict, failed = "old text not found once", "-"
            else:
                source.write_text(original.replace(mutant.old, mutant.new))
                try:
                    code, output = _pytest(copy, mutant.tests)
                finally:
                    source.write_text(original)
                counts = re.findall(r"(\d+) failed", output)
                failed = counts[-1] if counts else "0"
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            failures += verdict != "killed"
            print(f"{mutant.name:<40} {failed:>6}  {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

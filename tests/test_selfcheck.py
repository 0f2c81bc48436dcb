"""repro.analysis.lint — the SC101–SC104 rules, run for real over src/."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def rules(violations):
    return {v.rule for v in violations}


def test_shipped_tree_is_clean():
    violations = lint.check_tree(SRC)
    assert violations == [], "\n".join(str(v) for v in violations)


def test_cli_exits_zero_on_clean_tree(capsys):
    assert lint.main([str(SRC)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exits_two_on_missing_path():
    assert lint.main(["does/not/exist"]) == 2


def test_sc101_flags_global_np_random():
    src = "import numpy as np\nx = np.random.rand(3)\n"
    assert rules(lint.check_source(src, "repro/tensorir/foo.py")) == {"SC101"}


def test_sc101_flags_numpy_random_imports():
    assert rules(
        lint.check_source("from numpy.random import default_rng\n", "repro/a.py")
    ) == {"SC101"}
    assert rules(
        lint.check_source("from numpy import random\n", "repro/a.py")
    ) == {"SC101"}


def test_sc101_allows_rng_module_and_generator_hints():
    src = "import numpy as np\nx = np.random.default_rng(0)\n"
    assert lint.check_source(src, "src/repro/utils/rng.py") == []
    hint = "import numpy as np\ndef f(rng: np.random.Generator) -> None: ...\n"
    assert lint.check_source(hint, "repro/tensorir/foo.py") == []


def test_sc102_flags_mutable_defaults():
    src = "def f(a, b=[], c={}):\n    return a\n"
    found = lint.check_source(src, "repro/x.py")
    assert rules(found) == {"SC102"}
    assert len(found) == 2
    assert rules(lint.check_source("def g(x=dict()):\n    return x\n", "repro/x.py")) == {
        "SC102"
    }


def test_sc102_allows_immutable_defaults():
    src = "def f(a=1, b=(), c='x', d=None):\n    return a\n"
    assert lint.check_source(src, "repro/x.py") == []


def test_sc103_flags_float64_in_compute_paths_only():
    src = "import numpy as np\nx = np.zeros(3, dtype=np.float64)\n"
    assert rules(lint.check_source(src, "repro/nn/layers.py")) == {"SC103"}
    assert rules(lint.check_source(src, "repro/core/model.py")) == {"SC103"}
    assert lint.check_source(src, "repro/dataset/io.py") == []
    literal = "x = {'dtype': 'float64'}\n"
    assert rules(lint.check_source(literal, "repro/simhw/cpu.py")) == {"SC103"}


def test_sc104_flags_time_module_in_simhw_paths_only():
    assert rules(
        lint.check_source("import time\n", "repro/simhw/measure.py")
    ) == {"SC104"}
    assert rules(
        lint.check_source("from time import perf_counter\n", "repro/simhw/cpu_model.py")
    ) == {"SC104"}
    # Wall clock is fine everywhere else (the bench harness needs it).
    assert lint.check_source("import time\n", "repro/utils/timer.py") == []
    assert lint.check_source("import time\n", "repro/nn/optim.py") == []


def test_sc104_allows_timer_wrapper_import_in_simhw():
    # Importing the Timer context manager for a smoke harness is not a
    # wall-clock read in the measurement path itself.
    src = "from repro.utils.timer import Timer\n"
    assert lint.check_source(src, "repro/simhw/measure.py") == []


def test_suppression_token():
    src = "import numpy as np\nx = np.random.rand(3)  # selfcheck: allow\n"
    assert lint.check_source(src, "repro/x.py") == []


def test_unparseable_file_is_reported():
    found = lint.check_source("def broken(:\n", "repro/x.py")
    assert len(found) == 1 and "unparseable" in found[0].message
    # Parse errors have their own code — SC101 is reserved for the
    # np.random rule (regression: they used to share a code).
    assert found[0].rule == "SC100"


def test_check_file_reads_utf8(tmp_path):
    # Non-ASCII comments and strings must lint identically everywhere,
    # independent of the platform's default encoding.
    target = tmp_path / "repro" / "módulo.py"
    target.parent.mkdir()
    target.write_text(
        "# síntesis — ñandú\nGREETING = 'héllo wörld'\n", encoding="utf-8"
    )
    assert lint.check_file(target) == []

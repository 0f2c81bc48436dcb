"""repro.analysis.lint — the pluggable rule framework.

The original rule behaviors (SC101–SC104) are covered by
``test_selfcheck.py``; this module covers
the framework itself (registry, path scoping, rule-scoped suppressions,
unused-suppression detection, JSON output), SC101's ``bit_generator``
clause and the new rules SC105–SC107.
"""

from __future__ import annotations

import json

from repro.analysis import lint

# Built by concatenation so this test file never reads as carrying a
# (stale) suppression comment itself.
ALLOW = "# selfcheck: " + "allow"


def rules(violations):
    return {v.rule for v in violations}


# -- registry ----------------------------------------------------------------


def test_registry_covers_all_codes():
    assert set(lint.RULES) == {
        "SC100", "SC101", "SC102", "SC103", "SC104",
        "SC105", "SC106", "SC107", "SC199",
    }
    for rule in lint.RULE_REGISTRY:
        assert rule.id and rule.description


def test_path_scope_matching():
    compute = lint.PathScope(any_parts=frozenset({"nn", "simhw"}))
    assert compute.matches("src/repro/nn/layers.py")
    assert not compute.matches("src/repro/dataset/io.py")
    no_utils = lint.PathScope(
        any_parts=frozenset({"repro"}), not_parts=frozenset({"utils"})
    )
    assert no_utils.matches("src/repro/core/model.py")
    assert not no_utils.matches("src/repro/utils/rng.py")
    assert not no_utils.matches("benchmarks/bench_micro.py")
    exempt = lint.PathScope(skip_suffix="repro/utils/rng.py")
    assert not exempt.matches("src/repro/utils/rng.py")
    assert exempt.matches("src/repro/tensorir/sketch.py")


# -- SC101: bit_generator access --------------------------------------------


def test_sc101_flags_bit_generator_access_in_repro_only():
    src = "def f(rng):\n    return rng.bit_generator.random_raw(4)\n"
    found = lint.check_source(src, "src/repro/tensorir/foo.py")
    assert rules(found) == {"SC101"} and "bit_generator" in found[0].message
    assert lint.check_source(src, "src/repro/utils/rng.py") == []
    state = "def same(a, b):\n    return a.bit_generator.state == b.bit_generator.state\n"
    assert lint.check_source(state, "tests/test_sampler_plan.py") == []
    assert lint.check_source(state, "benchmarks/bench_simhw.py") == []


# -- SC105: set iteration ----------------------------------------------------


def test_sc105_flags_set_iteration_in_repro_paths():
    src = "for x in set(names):\n    print(x)\n"
    assert rules(lint.check_source(src, "repro/analysis/verifier.py")) == {"SC105"}
    comp = "out = [x for x in set(names)]\n"
    assert rules(lint.check_source(comp, "repro/core/model.py")) == {"SC105"}
    enum = "for i, x in enumerate({1, 2}):\n    print(i)\n"
    assert rules(lint.check_source(enum, "repro/core/model.py")) == {"SC105"}


def test_sc105_allows_ordered_iteration_and_utils():
    ordered = "for x in sorted(set(names)):\n    print(x)\n"
    assert lint.check_source(ordered, "repro/analysis/verifier.py") == []
    keys = "for x in dict.fromkeys(names):\n    print(x)\n"
    assert lint.check_source(keys, "repro/analysis/verifier.py") == []
    raw = "for x in set(names):\n    print(x)\n"
    assert lint.check_source(raw, "repro/utils/debug.py") == []
    assert lint.check_source(raw, "scripts/oneoff.py") == []


# -- SC106: exception swallowing ---------------------------------------------


def test_sc106_flags_bare_except_and_swallowing():
    bare = "try:\n    f()\nexcept:\n    handle()\n"
    assert rules(lint.check_source(bare, "repro/x.py")) == {"SC106"}
    swallow = "try:\n    f()\nexcept Exception:\n    pass\n"
    assert rules(lint.check_source(swallow, "repro/x.py")) == {"SC106"}


def test_sc106_allows_narrow_or_handled_excepts():
    narrow = "try:\n    f()\nexcept ValueError:\n    pass\n"
    assert lint.check_source(narrow, "repro/x.py") == []
    handled = "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n    raise\n"
    assert lint.check_source(handled, "repro/x.py") == []


# -- SC107: ambient configuration --------------------------------------------


def test_sc107_flags_environ_reads_outside_utils():
    attr = "import os\nlevel = os.environ['LEVEL']\n"
    assert rules(lint.check_source(attr, "repro/core/model.py")) == {"SC107"}
    getenv = "import os\nlevel = os.getenv('LEVEL')\n"
    assert rules(lint.check_source(getenv, "repro/simhw/measure.py")) == {"SC107"}
    imported = "from os import environ\n"
    assert rules(lint.check_source(imported, "repro/core/model.py")) == {"SC107"}


def test_sc107_allows_utils_and_non_repro_paths():
    src = "import os\nlevel = os.environ.get('LEVEL')\n"
    assert lint.check_source(src, "repro/utils/config.py") == []
    assert lint.check_source(src, "benchmarks/conftest.py") == []
    path_use = "import os\np = os.path.join('a', 'b')\n"
    assert lint.check_source(path_use, "repro/core/model.py") == []


# -- suppressions ------------------------------------------------------------


def test_rule_scoped_suppression():
    src = f"import numpy as np\nx = np.random.rand(3)  {ALLOW}[SC101]\n"
    assert lint.check_source(src, "repro/x.py") == []


def test_mismatched_scope_keeps_violation_and_flags_suppression():
    src = f"import numpy as np\nx = np.random.rand(3)  {ALLOW}[SC103]\n"
    found = lint.check_source(src, "repro/x.py")
    assert rules(found) == {"SC101", "SC199"}


def test_unused_suppression_is_flagged():
    src = f"x = 1  {ALLOW}\n"
    found = lint.check_source(src, "repro/x.py")
    assert rules(found) == {"SC199"}
    assert found[0].line == 1


def test_used_unscoped_suppression_is_not_flagged():
    src = f"import numpy as np\nx = np.random.rand(3)  {ALLOW}\n"
    assert lint.check_source(src, "repro/x.py") == []


def test_token_inside_string_literal_is_not_a_suppression():
    token = lint.SUPPRESS_TOKEN
    # The token as a *string value* must neither suppress the violation
    # on its line nor count as an unused suppression.
    src = f"import numpy as np\nx = np.random.rand(3); t = {token!r}\n"
    assert rules(lint.check_source(src, "repro/x.py")) == {"SC101"}
    clean = f"t = {token!r}\n"
    assert lint.check_source(clean, "repro/x.py") == []


def test_scoped_suppression_list():
    src = (
        "import numpy as np\n"
        f"def f(x=[]): return np.random.rand(3)  {ALLOW}[SC101, SC102]\n"
    )
    assert lint.check_source(src, "repro/x.py") == []


# -- violations & CLI --------------------------------------------------------


def test_violation_str_and_json_shape():
    v = lint.LintViolation("repro/x.py", 7, "SC102", "in signature of f()")
    assert str(v) == "repro/x.py:7: SC102 in signature of f()"
    assert v.to_json() == {
        "path": "repro/x.py", "line": 7, "rule": "SC102",
        "message": "in signature of f()",
    }


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
    assert lint.main(["--format", "json", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["rules"] == lint.RULES
    assert [v["rule"] for v in report["violations"]] == ["SC102"]

    good = tmp_path / "ok"
    good.mkdir()
    (good / "mod.py").write_text("x = 1\n", encoding="utf-8")
    assert lint.main(["--format", "json", str(good)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []


def test_cli_rejects_unknown_format(tmp_path):
    assert lint.main(["--format", "yaml", str(tmp_path)]) == 2
    assert lint.main(["--format"]) == 2


def test_violations_sorted_and_deterministic(tmp_path):
    src = (
        "import numpy as np\n"
        "def g(y={}):\n"
        "    return np.random.rand(2)\n"
        "def f(x=[]):\n"
        "    return x\n"
    )
    first = lint.check_source(src, "repro/x.py")
    second = lint.check_source(src, "repro/x.py")
    assert first == second
    assert [v.line for v in first] == sorted(v.line for v in first)
    assert rules(first) == {"SC101", "SC102"}

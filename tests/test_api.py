import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import raise_exactly

import svdsep
from svdsep import cli, image, linalg, signal, synth
from svdsep.cli import main
from svdsep.errors import OrderError, RangeError

MODULES = sorted(m.name for m in pkgutil.iter_modules(svdsep.__path__, "svdsep."))
README = Path(__file__).resolve().parents[1] / "README.md"
# The modules whose __all__ the top level re-exports, in its order: all but io.
REEXPORTED = ("svdsep.errors", "svdsep.linalg", "svdsep.signal", "svdsep.image", "svdsep.synth", "svdsep.bench")


@pytest.mark.parametrize("module", ["svdsep", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_the_top_level_lists_each_name_once():
    assert len(set(svdsep.__all__)) == len(svdsep.__all__)


def test_the_top_level_names_are_the_module_all_lists():
    with_all = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert with_all - set(REEXPORTED) == {"svdsep.io"}
    modules = [importlib.import_module(name) for name in REEXPORTED]
    assert svdsep.__all__ == [name for mod in modules for name in mod.__all__] + ["__version__"]


@pytest.mark.parametrize("module", REEXPORTED)
def test_each_top_level_name_is_its_module_s_object(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if getattr(svdsep, name) is not getattr(mod, name)] == []


def test_readme_quickstart_runs_and_its_comments_hold():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["cut"].m == 2
    assert scope["cut"].f == 4
    assert scope["gcut"].f is None


def test_readme_cli_quickstart_runs_and_writes_the_files_it_names(tmp_path, monkeypatch):
    block = re.search(r"## CLI quickstart\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = block.group(1).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("svdsep ")]
    named = [name.strip() for line in lines if line.startswith("# ->") for name in line[4:].split(",")]
    assert len(commands) == 6 and len(named) == 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert [name for name in named if not (tmp_path / name).is_file()] == []


_D = np.random.default_rng(3).uniform(size=(5, 5))


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: image.singular_smoothness(_D, 1.5), OrderError, id="smoothness-order"),
    pytest.param(lambda: signal.energy_gap(linalg.svd(_D), 1.5), RangeError, id="energy-gap-split"),
    pytest.param(lambda: linalg.truncated_sum(linalg.svd(_D), 1, 2.5), RangeError, id="truncated-sum-last"),
    pytest.param(lambda: image.information_density(_D, 1.5), RangeError, id="density-lo"),
    pytest.param(lambda: image.information_density(_D, 1, 2.5), RangeError, id="density-hi"),
])
def test_a_non_integer_index_or_order_is_a_typed_error(call, error):
    raise_exactly(error, call)


def test_the_window_settings_have_one_home():
    # a window knob added to the config or to the scan flags only would be a setting the other cannot reach
    config = {f.name for f in dataclasses.fields(image.WindowConfig)}
    args = vars(cli.build_parser().parse_args(["scan", "x.pgm", "--output-prefix", "p"]))
    flags = set(args) - {"command", "func", "input", "output_prefix", "json", "threshold", "polarity"}
    assert config == flags


SYNTH_SPECS = [("mixture", synth.MixtureSpec), ("texture", synth.TextureSpec)]


def synth_args(kind):
    """The parsed flags of ``synth kind`` given no optional flag, by dest."""
    args = vars(cli.build_parser().parse_args(["synth", kind, "--output-prefix", "p"]))
    return {name: value for name, value in args.items()
            if name not in {"command", "kind", "func", "output_prefix", "json"}}


@pytest.mark.parametrize("kind, spec", SYNTH_SPECS)
def test_each_synth_flag_is_a_field_of_its_spec(kind, spec, tmp_path):
    # a flag named otherwise needs a line of its own in cmd_synth to reach its field
    fields = {f.name for f in dataclasses.fields(spec)}
    flags = set(synth_args(kind))
    if kind == "texture":  # the --noise-* flags give the tags of noise_amplitude
        amplitudes = {"smooth": 0.25, "rough": 0.5, "anomaly": 0.75}
        prefix = tmp_path / "t"
        assert main(["synth", "texture", *(f"--noise-{tag}={amp}" for tag, amp in amplitudes.items()),
                     "--output-prefix", str(prefix)]) == 0
        with open(f"{prefix}_report.json", encoding="utf-8") as fh:
            given = json.load(fh)["parameters"]["noise_amplitude"]
        assert given == {"smooth": 0.25, "rough": 0.5, "anomaly-band": 0.75}
        flags -= {f"noise_{tag}" for tag in amplitudes}
        fields -= {"noise_amplitude"}
    assert flags == fields


@pytest.mark.parametrize("kind, spec", SYNTH_SPECS)
def test_a_synth_flag_not_given_leaves_the_spec_default(kind, spec):
    # a default restated in the parser keeps its old value when the spec's changes
    required = {f.name for f in dataclasses.fields(spec)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    assert {name for name, value in synth_args(kind).items() if value is not None} == required


def test_the_short_summary_names_each_failure():
    # an -r option replaces pytest's default "fE": without f, a failing test's id is not in the summary
    tomllib = pytest.importorskip("tomllib")
    with open(README.parent / "pyproject.toml", "rb") as fh:
        addopts = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["addopts"]
    assert "-rfEs" in addopts.split()


def test_a_misspelt_marker_fails_collection(request):
    # The ini key, not --strict-markers in addopts, which pytest 9 ignores there:
    # with it, @pytest.mark.<typo> is a collection error, not an unknown mark.
    assert request.config.getini("strict_markers") is True


@pytest.mark.parametrize("path", sorted(Path(svdsep.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_the_only_runtime_dependency(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names - {"numpy", "svdsep"} == set()


def test_readme_install_comment_names_the_test_extra():
    pyproject = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    extra = ast.literal_eval(re.search(r"^test = (\[.*\])$", pyproject, re.M).group(1))
    comment = re.search(r"^pip install \.\[test\] +# adds (.*) for the test suite$",
                        README.read_text(encoding="utf-8"), re.M)
    assert comment.group(1).split(", ") == extra


# The tier-1 command: the whole suite, tests/ and perfbench/, from the source tree.
TIER_1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def ci_job():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((README.parent / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    (job,) = workflow["jobs"].values()
    return job


def test_ci_runs_the_tier_1_command_on_each_supported_python():
    job = ci_job()
    assert job["timeout-minutes"] == 30
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    # --durations=10 lists the ten slowest tests of each run; it changes no pass or fail.
    # Then the installed entry point separates a recording read from a pipe,
    # on the gsvd route and, from its first channel, on the hankel route.
    assert runs[:2] == ["pip install .[test]", f"{TIER_1} --durations=10"]
    assert len(runs) == 3 and "| svdsep separate /dev/stdin --method gsvd " in runs[2]
    assert "cut -d, -f1 a_signals.csv | svdsep separate /dev/stdin --layout hankel --window-length 40 " in runs[2]


def test_the_ci_entry_point_step_passes_from_the_source_tree(tmp_path):
    # The step's own lines, with the module standing in for the installed entry point.
    script = ci_job()["steps"][-1]["run"]
    stand_in = f'svdsep() {{ {shlex.quote(sys.executable)} -m svdsep.cli "$@"; }}\n'
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    done = subprocess.run(["bash", "-ec", stand_in + script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    for prefix in ("piped", "hpiped"):
        assert sorted(p.name for p in tmp_path.glob(f"{prefix}_*")) == \
            [f"{prefix}_{name}" for name in ("dominant.csv", "noise.csv", "report.json", "weak.csv")]

"""Packaging-surface tests: the public API must stay importable and sane.

Guards against the classic release breakages: ``__all__`` names that
don't resolve, subpackage re-exports drifting from their modules, the
version string, and the CLI entry point.
"""

import importlib

import pytest

SUBPACKAGES = [
    "repro",
    "repro.core",
    "repro.sequence",
    "repro.index",
    "repro.mapper",
    "repro.fpga",
    "repro.io",
    "repro.baseline",
    "repro.web",
    "repro.bench",
    "repro.bench.platform",
    "repro.serving",
    "repro.check",
    "repro.telemetry",
]


class TestPublicSurface:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_names_resolve(self, name):
        mod = importlib.import_module(name)
        assert hasattr(mod, "__all__"), name
        for symbol in mod.__all__:
            assert hasattr(mod, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_sorted_unique(self, name):
        mod = importlib.import_module(name)
        names = [n for n in mod.__all__]
        assert len(names) == len(set(names)), f"duplicates in {name}.__all__"
        assert names == sorted(names), f"{name}.__all__ is not sorted"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_top_level_workflow_symbols(self):
        import repro

        for symbol in ("build_index", "Mapper", "FMIndex", "RRRVector",
                       "WaveletTree", "save_index", "load_index"):
            assert symbol in repro.__all__

    def test_cli_entry_point(self):
        from repro.cli import build_parser, main

        parser = build_parser()
        commands = {a.dest for a in parser._subparsers._group_actions[0]._choices_actions}  # type: ignore[union-attr]
        # argparse stores choices differently; fall back to parsing help.
        help_text = parser.format_help()
        for cmd in ("index", "map", "inspect", "simulate", "serve"):
            assert cmd in help_text
        assert callable(main)

    def test_module_docstrings_everywhere(self):
        """Every public module documents itself (deliverable e)."""
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        missing = []
        for path in root.rglob("*.py"):
            source = path.read_text()
            if not source.strip():
                continue
            import ast

            tree = ast.parse(source)
            if ast.get_docstring(tree) is None:
                missing.append(str(path.relative_to(root)))
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_classes_documented(self):
        """Spot-check: exported classes and functions carry docstrings."""
        for name in SUBPACKAGES[1:]:
            mod = importlib.import_module(name)
            for symbol in mod.__all__:
                obj = getattr(mod, symbol)
                if callable(obj) and getattr(obj, "__doc__", None) is None:
                    pytest.fail(f"{name}.{symbol} lacks a docstring")


#: Modules a plain ``map`` has no use for; the lazy package exports keep
#: them out of its launch (each would be compiled when bytecode writing
#: is off).
NOT_ON_MAP_PATH = (
    "repro.index.build_stream",
    "repro.index.builder",
    "repro.index.bidirectional",
    "repro.index.partitioned",
    "repro.index.validate",
    "repro.io.readsim",
    "repro.io.refgen",
    "repro.io.qc",
    "repro.mapper.mismatch",
)


LAZY_PACKAGES = ["repro", "repro.index", "repro.io", "repro.mapper", "repro.sequence"]


class TestLazyExports:
    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_dir_lists_every_export(self, name):
        mod = importlib.import_module(name)
        assert set(mod.__all__) <= set(dir(mod))
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            mod.nope

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_no_export_resolves_to_a_submodule(self, name):
        """Importing a submodule binds its name on the package; an export
        of the same name (``suffix_array``) must still be the function."""
        import types

        import repro.index.builder  # noqa: F401  (loads sequence.suffix_array)

        mod = importlib.import_module(name)
        modules = [s for s in mod.__all__ if isinstance(getattr(mod, s), types.ModuleType)]
        assert not modules, f"{name} exports modules: {modules}"

    def test_from_import_after_builder_gives_the_function(self):
        """In a fresh interpreter, where the builder import is what first
        loads ``repro.sequence.suffix_array``."""
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import repro.index.builder\n"
            "from repro import build_index, suffix_array\n"
            "import repro.sequence\n"
            "assert callable(suffix_array) and callable(repro.suffix_array)\n"
            "assert callable(repro.sequence.suffix_array)\n"
            "assert suffix_array([0, 1, 2, 3]).tolist() == [4, 0, 1, 2, 3]\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)

    def test_map_launch_loads_no_builder(self, tmp_path):
        import os
        import subprocess
        import sys

        import repro
        from repro.index.builder import build_index
        from repro.index.flat import save_index_flat

        text = "ACGTTGCAAGGCTTACCGATTAGCAT" * 20
        index, _ = build_index(text, ftab_k=4)
        save_index_flat(index, tmp_path / "idx.bwvr")
        (tmp_path / "reads.fq").write_text(f"@r0\n{text[5:45]}\n+\n{'I' * 40}\n")
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            f"assert main(['map', {str(tmp_path / 'idx.bwvr')!r}, "
            f"{str(tmp_path / 'reads.fq')!r}, '-o', {str(tmp_path / 'hits.tsv')!r}]) == 0\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        ).stdout.split()
        assert "repro.index.fm_index" in out and "repro.mapper.stream" in out
        assert not set(NOT_ON_MAP_PATH) & set(out)
        assert (tmp_path / "hits.tsv").read_text().count("\n") == 2  # header + 1 read

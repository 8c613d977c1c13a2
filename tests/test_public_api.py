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

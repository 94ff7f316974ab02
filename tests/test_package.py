import copy
import importlib
import pickle
import subprocess
import sys

import pytest

import skewchar
from skewchar import Partition, SkewDiagram

from helpers import P, SD

# the module of every public name; an engine's names are imported on first use
DEFINED_IN = {
    **dict.fromkeys(
        (
            "DurfeeMaxReport",
            "DurfeeWitness",
            "associated_diagram",
            "complement",
            "max_durfee_product",
            "max_durfee_special_skew",
            "verify_complementation",
        ),
        "durfeemax",
    ),
    **dict.fromkeys(
        (
            "Discrepancy",
            "EqualityReport",
            "FullCheck",
            "LevelRecord",
            "check_equality",
            "full_equality",
            "necessary_conditions",
        ),
        "equality",
    ),
    **dict.fromkeys(
        (
            "MAX_WITNESSES",
            "MaxHookReport",
            "MaxHookWitness",
            "TooManyWitnesses",
            "gamma_partition",
            "hl_of_skew",
            "max_hl_characters",
            "min_durfee",
            "pi_max",
            "pi_min",
        ),
        "extremal",
    ),
    **dict.fromkeys(
        (
            "CharacterSum",
            "TooManyFillings",
            "brute_decompose",
            "decompose_skew",
            "enumerate_lr_fillings",
            "lr_coefficient",
            "outer_product",
            "schubert_product",
        ),
        "lr",
    ),
    **dict.fromkeys(
        (
            "RibbonLabeling",
            "RibbonProfile",
            "nw_labeling",
            "nw_layers",
            "pi_nw",
            "ribbon_profile",
            "strip_nw_ribbons",
        ),
        "ribbons",
    ),
    **dict.fromkeys(
        (
            "GrammarError",
            "Partition",
            "conjugate",
            "contains",
            "durfee",
            "first_hook_strip",
            "format_partition",
            "from_frobenius",
            "parse_partition",
            "partitions_in_box",
            "principal_hook_lengths",
            "subpartitions",
        ),
        "partitions",
    ),
    **dict.fromkeys(("render", "render_labels", "render_plain"), "render"),
    **dict.fromkeys(
        (
            "SkewDiagram",
            "components",
            "embed_disjoint",
            "format_skew",
            "normalize",
            "parse_skew",
            "rotate180",
            "skew_from_boxes",
            "translate",
        ),
        "skew",
    ),
}


class TestPackageNames:
    def test_every_name_is_its_modules_object(self):
        assert sorted(skewchar.__all__) == sorted(DEFINED_IN)
        assert len(set(skewchar.__all__)) == len(skewchar.__all__)
        for name in skewchar.__all__:
            module = importlib.import_module(f"skewchar.{DEFINED_IN[name]}")
            assert getattr(skewchar, name) is getattr(module, name), name

    def test_render_stays_the_function(self):
        import skewchar.render

        assert callable(skewchar.render)
        assert skewchar.render is sys.modules["skewchar.render"].render
        assert skewchar.render(SD((2, 1)), "plain") == "##\n#\n"

    def test_dir_and_unknown_names(self):
        assert set(skewchar.__all__) <= set(dir(skewchar))
        assert {"lr", "ribbons", "equality", "extremal", "durfeemax"} <= set(dir(skewchar))
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            skewchar.no_such_name
        assert not hasattr(skewchar, "_no_such_name")

    def test_engine_modules_are_attributes(self):
        for name in ("durfeemax", "equality", "extremal", "lr", "ribbons"):
            assert getattr(skewchar, name) is importlib.import_module(f"skewchar.{name}")

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from skewchar import *", namespace)
        assert {name: namespace[name] for name in skewchar.__all__} == {
            name: getattr(skewchar, name) for name in skewchar.__all__
        }

    def test_import_executes_no_engine(self):
        # a fresh interpreter: the engine names are served only when used
        script = (
            "import sys, types, skewchar\n"
            "def executed():\n"
            "    return sorted(n for n, m in sys.modules.items()\n"
            "                  if n.split('.')[0] == 'skewchar' and type(m) is types.ModuleType)\n"
            "print(executed())\n"
            "skewchar.nw_layers\n"
            "print(executed())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        first, second = proc.stdout.splitlines()
        base = ["skewchar", "skewchar.partitions", "skewchar.render", "skewchar.skew"]
        assert first == str(base)
        assert second == str(sorted(base + ["skewchar.ribbons"]))


class TestSkewDiagramValue:
    def test_constructor_positional_and_keyword(self):
        outer, inner = P(3, 2), P(1)
        a = SkewDiagram(outer, inner)
        assert SkewDiagram(outer=outer, inner=inner) == a
        assert SkewDiagram(outer, inner=inner) == a
        assert SkewDiagram(outer).inner == Partition() == SkewDiagram(outer=outer).inner
        with pytest.raises(ValueError, match="inner not contained in outer"):
            SkewDiagram(P(2), P(3))
        with pytest.raises(TypeError):
            SkewDiagram()

    def test_equality_and_hash(self):
        a, b = SD((3, 2), (1,)), SD((3, 2), (1,))
        assert a == b and a is not b and hash(a) == hash(b)
        assert a != SD((3, 2)) and a != SD((3, 2, 1), (1,))
        assert len({a, b, SD((3, 2))}) == 2
        assert a.__eq__((P(3, 2), P(1))) is NotImplemented
        assert a != (P(3, 2), P(1)) and a != "3,2/1"

    def test_repr(self):
        assert repr(SD((3, 2), (1,))) == "SkewDiagram(outer=Partition([3, 2]), inner=Partition([1]))"
        assert repr(SD(())) == "SkewDiagram(outer=Partition([]), inner=Partition([]))"

    def test_immutable(self):
        a = SD((3, 2), (1,))
        with pytest.raises(AttributeError):
            a.outer = P(4)
        with pytest.raises(AttributeError):
            a.size = 5
        with pytest.raises(AttributeError):
            del a.inner
        assert a == SD((3, 2), (1,))

    def test_copy_and_pickle(self):
        a = SD((5, 4, 4, 1), (3, 1))
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and hash(b) == hash(a) and type(b) is SkewDiagram
            assert b.spans == a.spans

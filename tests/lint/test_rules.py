"""Self-test corpus: every rule fires on its bad fixture and only there.

Fixtures live in ``tests/lint/fixtures``; each is linted under a synthetic
in-scope path (as if it sat inside ``src/repro/...``) so the per-rule path
scoping runs exactly as it does in production.
"""

from pathlib import Path

import pytest

from repro.lint import RULES, all_rules, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> (synthetic path, expected rule code, expected count)
BAD_FIXTURES = [
    ("bad_hd001.py", "src/repro/data/bad_hd001.py", "HD001", 2),
    ("bad_hd002.py", "src/repro/core/bad_hd002.py", "HD002", 3),
    ("bad_hd003.py", "src/repro/eval/bad_hd003.py", "HD003", 3),
    ("bad_hd004.py", "src/repro/core/bad_hd004.py", "HD004", 3),
    ("bad_hd005.py", "src/repro/core/bad_hd005.py", "HD005", 2),
    ("bad_hd006.py", "src/repro/core/bad_hd006.py", "HD006", 1),
    ("bad_hd006_backend.py", "src/repro/kernels/bad_backend.py", "HD006", 3),
    ("bad_hd007.py", "src/repro/api/bad_hd007.py", "HD007", 6),
    ("bad_hd008.py", "src/repro/persist/bad_hd008.py", "HD008", 7),
    ("bad_hd009.py", "src/repro/serve/bad_hd009.py", "HD009", 5),
    ("bad_hd010.py", "src/repro/scenarios/bad_hd010.py", "HD010", 3),
    ("bad_hd011.py", "src/repro/serve/bad_hd011.py", "HD011", 3),
]


def read(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestRegistry:
    def test_catalogue_complete(self):
        assert sorted(RULES) == [f"HD{i:03d}" for i in range(1, 13)]

    def test_rules_carry_metadata(self):
        for rule in all_rules():
            assert rule.code and rule.name and rule.description


class TestBadFixtures:
    @pytest.mark.parametrize("fixture,path,code,count", BAD_FIXTURES)
    def test_triggers_exactly_its_rule(self, fixture, path, code, count):
        findings = lint_source(read(fixture), path)
        assert {f.code for f in findings} == {code}, [f.render() for f in findings]
        assert len(findings) == count

    @pytest.mark.parametrize("fixture,path,code,count", BAD_FIXTURES)
    def test_select_isolates_rule(self, fixture, path, code, count):
        findings = lint_source(read(fixture), path, select=[code])
        assert len(findings) == count
        other = [c for c in RULES if c != code]
        assert lint_source(read(fixture), path, select=other) == []


class TestGoodFixture:
    @pytest.mark.parametrize(
        "path",
        ["src/repro/core/good_clean.py", "src/repro/eval/good_clean.py"],
    )
    def test_clean_under_every_rule(self, path):
        findings = lint_source(read("good_clean.py"), path)
        assert findings == [], [f.render() for f in findings]

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/core/obs_streaming_clean.py",
            "src/repro/eval/obs_streaming_clean.py",
        ],
    )
    def test_instrumented_streaming_path_clean(self, path):
        # Regression: the span-decorated wrapper collects parallel_map
        # blocks and merges them in a Python loop — HD003 must not fire.
        findings = lint_source(read("obs_streaming_clean.py"), path)
        assert findings == [], [f.render() for f in findings]


class TestRuleDetails:
    def test_hd001_names_the_offender(self):
        findings = lint_source(read("bad_hd001.py"), "src/repro/x.py")
        assert any("np.random.seed" in f.message for f in findings)
        assert all(f.rule_name == "legacy-global-rng" for f in findings)

    def test_hd002_exempts_float_metrics(self):
        src = (
            "def normalized_hamming(d, dim):\n"
            "    return d / dim\n"
        )
        assert lint_source(src, "src/repro/core/m.py", select=["HD002"]) == []

    def test_hd002_outside_core_is_silent(self):
        findings = lint_source(read("bad_hd002.py"), "src/repro/eval/m.py")
        assert findings == []

    def test_hd003_reference_functions_exempt(self):
        src = (
            "from repro.core.distance import pairwise_hamming\n"
            "def loo_scores_reference(packed):\n"
            "    return pairwise_hamming(packed)\n"
        )
        assert lint_source(src, "src/repro/eval/m.py") == []

    def test_hd004_masked_not_is_clean(self):
        src = (
            "import numpy as np\n"
            "from repro.core.hypervector import tail_mask\n"
            "def complement(packed, dim):\n"
            "    out = np.bitwise_not(packed)\n"
            "    out[..., -1] &= tail_mask(dim)\n"
            "    return out\n"
        )
        assert lint_source(src, "src/repro/core/m.py") == []

    def test_hd004_boolean_mask_invert_not_flagged(self):
        src = (
            "import numpy as np\n"
            "def pick(values, hit):\n"
            "    return values[~hit]\n"
        )
        assert lint_source(src, "src/repro/core/m.py") == []

    def test_hd005_private_and_validated_are_clean(self):
        src = (
            "def _helper(dim):\n"
            "    return dim\n"
            "def sized(dim):\n"
            "    if dim < 1:\n"
            "        raise ValueError(dim)\n"
            "    return dim\n"
        )
        assert lint_source(src, "src/repro/core/m.py") == []

    def test_hd006_matching_signatures_clean(self):
        src = (
            "def fetch(a, k=1):\n"
            "    return a[:k]\n"
            "def fetch_reference(a, k=1, *, block_rows=64):\n"
            "    return a[:k]\n"
        )
        assert lint_source(src, "src/repro/core/m.py") == []

    def test_hd006_orphan_reference_ignored(self):
        src = "def cohort_reference(x):\n    return x\n"
        assert lint_source(src, "src/repro/core/m.py") == []

    def test_hd006_backend_matching_signatures_clean(self):
        src = (
            "def hamming_block(A, B, *, word_chunk=None):\n"
            "    return A ^ B\n"
            "def loo_topk_hamming_tile(X, start, stop, k, *, tile_cols=1024,"
            " word_chunk=32):\n"
            "    return X\n"
        )
        findings = lint_source(
            src, "src/repro/kernels/my_backend.py", select=["HD006"]
        )
        assert findings == [], [f.render() for f in findings]

    def test_hd006_backend_helper_names_ignored(self):
        # Helpers that are not registry kernels may use any signature.
        src = "def _topk(Q, X, k, self_start):\n    return Q\n"
        assert lint_source(
            src, "src/repro/kernels/my_backend.py", select=["HD006"]
        ) == []

    def test_hd006_non_backend_kernels_module_exempt(self):
        # Only *_backend.py modules are held to the canonical signatures.
        src = "def hamming_block(A, B, word_chunk=None):\n    return A\n"
        assert lint_source(
            src, "src/repro/kernels/registry.py", select=["HD006"]
        ) == []

    def test_hd006_real_backends_match_contract(self):
        root = Path(__file__).resolve().parents[2] / "src" / "repro" / "kernels"
        for name in ("numpy_backend.py", "native_backend.py"):
            findings = lint_source(
                (root / name).read_text(encoding="utf-8"),
                f"src/repro/kernels/{name}",
                select=["HD006"],
            )
            assert findings == [], [f.render() for f in findings]

    def test_hd007_outside_facade_is_silent(self):
        findings = lint_source(
            read("bad_hd007.py"), "src/repro/eval/m.py", select=["HD007"]
        )
        assert findings == []

    def test_hd007_real_facade_is_clean(self):
        real = (
            Path(__file__).resolve().parents[2] / "src" / "repro" / "api.py"
        ).read_text(encoding="utf-8")
        findings = lint_source(real, "src/repro/api.py", select=["HD007"])
        assert findings == [], [f.render() for f in findings]

    def test_hd008_outside_artifact_paths_is_silent(self):
        findings = lint_source(
            read("bad_hd008.py"), "src/repro/core/m.py", select=["HD008"]
        )
        assert findings == []

    def test_hd008_verified_pickle_free_read_is_clean(self):
        src = (
            "import hashlib\n"
            "import io\n"
            "import numpy as np\n"
            "def read_payload(path, expected):\n"
            "    data = open(path, 'rb').read()\n"
            "    if hashlib.sha256(data).hexdigest() != expected:\n"
            "        raise ValueError(path)\n"
            "    return np.load(io.BytesIO(data), allow_pickle=False)\n"
        )
        assert lint_source(src, "src/repro/persist/m.py", select=["HD008"]) == []

    def test_hd008_real_artifact_reader_is_clean(self):
        real = (
            Path(__file__).resolve().parents[2]
            / "src" / "repro" / "persist" / "artifact.py"
        ).read_text(encoding="utf-8")
        findings = lint_source(
            real, "src/repro/persist/artifact.py", select=["HD008"]
        )
        assert findings == [], [f.render() for f in findings]

    def test_hd003_parallel_map_results_exempt(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "def merge(fn, items):\n"
            "    blocks = parallel_map(fn, items)\n"
            "    out = []\n"
            "    for i in range(len(blocks)):\n"
            "        out.append(blocks[i])\n"
            "    return out\n"
        )
        assert lint_source(src, "src/repro/eval/m.py", select=["HD003"]) == []

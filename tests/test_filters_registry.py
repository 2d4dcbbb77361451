"""Registry: the Table 1 inventory and the factory."""

from __future__ import annotations

import pytest

from repro.errors import FilterError
from repro.filters import (
    FILTER_NAMES,
    REGISTRY,
    SpectralFilter,
    make_filter,
)


class TestInventory:
    def test_total_is_27(self):
        assert len(FILTER_NAMES) == 27

    def test_category_counts_match_paper(self):
        categories = [entry.category for entry in REGISTRY.values()]
        assert [categories.count(c) for c in ("fixed", "variable", "bank")] \
            == [7, 11, 9]

    def test_names_unique(self):
        assert len(set(FILTER_NAMES)) == len(FILTER_NAMES)

    def test_every_entry_has_models(self):
        for entry in REGISTRY.values():
            assert entry.models, entry.name

    def test_categories_consistent_with_classes(self):
        for name, entry in REGISTRY.items():
            instance = make_filter(name, num_hops=3, num_features=4)
            assert isinstance(instance, SpectralFilter)
            assert instance.category == entry.category, name


class TestFactory:
    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_build_all(self, name):
        instance = make_filter(name, num_hops=5, num_features=8)
        assert instance.num_hops == 5 or name == "identity"

    def test_unknown_name(self):
        with pytest.raises(FilterError):
            make_filter("butterworth")

    def test_hyperparameter_override(self):
        f = make_filter("ppr", alpha=0.42)
        assert f.alpha == 0.42

    def test_adagnn_needs_width(self):
        with pytest.raises(FilterError):
            make_filter("adagnn")
        f = make_filter("adagnn", num_features=12)
        assert f.num_features == 12

    def test_variants_distinct(self):
        one = make_filter("fbgnn1", num_hops=3)
        two = make_filter("fbgnn2", num_hops=3)
        assert one.fusion != two.fusion


class TestTaxonomyTable:
    def test_bernstein_flagged_quadratic(self):
        assert "K^2" in REGISTRY["bernstein"].time_complexity

    def test_bank_memory_is_q_scaled(self):
        assert "Q" in REGISTRY["figure"].memory_complexity

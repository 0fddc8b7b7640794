import math
import tracemalloc

import numpy as np
import pytest

from dca_ids.dataset import ANOMALOUS, NORMAL
from dca_ids.dca import (
    DEFAULT_WEIGHTS,
    DcaConfig,
    PresentationLog,
    _tally,
    run_dca_with_log,
)
from dca_ids.errors import ConfigurationError
from dca_ids.experiments import write_mcav_table
from dca_ids.signals import (
    antigen_stream,
    apply_time_window,
    default_signal_config,
    signal_stream,
)

from conftest import parse_lines
from test_golden_reports import golden_lines
from test_parse_equivalence import kddgen_text

ALL_PAMP = (100.0, 0.0, 0.0)
ALL_SAFE = (0.0, 0.0, 100.0)
ZERO = (0.0, 0.0, 0.0)
TIE = (0.0, 60.0, 10.0)  # semi == mat


def small_config(**overrides):
    defaults = dict(population_size=20, cells_per_step=5)
    defaults.update(overrides)
    return DcaConfig(**defaults)


def transform_signals(triple):
    """(csm, semi, mat) of one input triple under the engine's weights."""
    return tuple((np.asarray(triple, dtype=float) @ DEFAULT_WEIGHTS).tolist())


class TestTransform:
    def test_zero_input(self):
        assert transform_signals((0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_pamp_only(self):
        assert transform_signals(ALL_PAMP) == (200.0, 0.0, 200.0)

    def test_safe_only(self):
        assert transform_signals(ALL_SAFE) == (300.0, 300.0, -300.0)

    def test_danger_only(self):
        assert transform_signals((0, 100, 0)) == (100.0, 0.0, 100.0)


def one_cell(threshold, **overrides):
    """A one-cell population whose every migration threshold is fixed."""
    return small_config(population_size=1, cells_per_step=1,
                        threshold_low=threshold, threshold_high=threshold,
                        **overrides)


def run_steps(steps, config, seed=0):
    """Run a stream given as (antigen name, signal triple) pairs. Returns the
    MCAV and the (total, mature) presentations of each type, by name."""
    names = sorted({antigen for antigen, _ in steps})
    codes = [names.index(antigen) for antigen, _ in steps]
    signals = np.array([triple for _, triple in steps], dtype=float)
    mcav, log = run_dca_with_log(codes, signals.reshape(-1, 3), config, seed)
    tallies = zip(log.totals.tolist(), log.matures.tolist())
    return dict(zip(names, mcav.tolist())), dict(zip(names, tallies))


class TestCell:
    """Rules of one cell's life, seen through whole runs: a presentation's
    context shows which steps the presenting cell had summed."""

    def test_sample_accumulates(self):
        # semi 30 + 0 > mat -30 + 40: semi-mature on the sums, though the
        # last step alone would be mature
        mcav, _ = run_steps([("a", (0, 0, 10)), ("b", (20, 0, 0))],
                            one_cell(1000))
        assert mcav == {"a": 0.0, "b": 0.0}

    def test_zero_signal_leaves_accumulators(self):
        base = [("a", ALL_PAMP), ("b", ALL_SAFE)]
        padded = base[:1] + [("z", ZERO)] * 5 + base[1:]
        mcav, _ = run_steps(base, one_cell(350))
        padded_mcav, _ = run_steps(padded, one_cell(350))
        assert mcav == {"a": 0.0, "b": 0.0}
        assert padded_mcav == {**mcav, "z": 0.0}

    def test_antigen_store_grows(self):
        _, tallies = run_steps([("a", ZERO), ("b", ZERO)],
                               one_cell(1000, multiplier=3))
        assert (tallies["a"][0], tallies["b"][0]) == (3, 3)

    def test_migration_strict(self):
        # csm 200 after the first step: a threshold of exactly 200 keeps the
        # cell sampling into the safe step; one just below migrates it
        steps = [("a", ALL_PAMP), ("b", ALL_SAFE)]
        assert run_steps(steps, one_cell(200))[0] == {"a": 0.0, "b": 0.0}
        assert run_steps(steps, one_cell(199.5))[0] == {"a": 1.0, "b": 0.0}

    def test_context_safe_dominates(self):
        assert run_steps([("a", ALL_SAFE)], one_cell(100))[0] == {"a": 0.0}

    def test_context_pamp_dominates(self):
        assert run_steps([("a", ALL_PAMP)], one_cell(100))[0] == {"a": 1.0}

    def test_context_tie_is_mature(self):
        assert transform_signals(TIE) == (90.0, 30.0, 30.0)
        # at migration and at the end-of-stream flush
        assert run_steps([("a", TIE)], one_cell(50))[0] == {"a": 1.0}
        assert run_steps([("a", TIE)], one_cell(1000))[0] == {"a": 1.0}


class TestMcav:
    def test_ratio(self):
        # three PAMP steps migrate the cell mature, the safe one semi-mature
        mcav, tallies = run_steps([("a", ALL_PAMP)] * 3 + [("a", ALL_SAFE)],
                                  one_cell(150))
        assert tallies == {"a": (4, 3)}
        assert mcav == {"a": 0.75}

    def test_extremes(self):
        mcav, _ = run_steps([("one", ALL_PAMP)] * 4 + [("zero", ALL_SAFE)] * 4,
                            one_cell(150))
        assert mcav == {"zero": 0.0, "one": 1.0}

    def test_unpresented_type_absent(self):
        # code 1 never occurs: no presentations, NaN MCAV, no table row
        mcav, log = run_dca_with_log([0, 2], np.zeros((2, 3)), one_cell(1000),
                                     seed=1)
        assert log.totals.tolist() == [1, 0, 1]
        assert math.isnan(mcav[1])
        assert len(run_dca_with_log([], np.empty((0, 3)), one_cell(1000),
                                    seed=1)[0]) == 0

    def test_classification_strict(self, tmp_path):
        log = PresentationLog(np.array([20, 10, 4]), np.array([17, 8, 0]))
        path = tmp_path / "mcav.tsv"
        mcav = np.array([0.85, 0.8, 0.0])
        # The class column echoes the mask it is given, here the strict
        # ``>`` mask; that the run itself classifies with ``>`` (0.8 is
        # normal) is pinned through experiments._run_e1 by test_cli's
        # test_mcav_class_column_is_the_mask_the_run_is_scored_with.
        write_mcav_table(mcav, log, mcav > DcaConfig().mcav_threshold, path,
                         ["a", "b", "c"])
        labels = [line.split("\t")[-1]
                  for line in path.read_text().splitlines()[1:]]
        assert labels == [ANOMALOUS, NORMAL, NORMAL]

    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            DcaConfig(mcav_threshold=1.5)


class TestTissueStep:
    """Rules of one stream step, seen through whole runs."""

    def test_no_migration_on_zero_signal(self):
        # every cell samples every step; the final safe step migrates them
        # all semi-mature, so any copy presented mature would show in "a"
        config = small_config(population_size=5, cells_per_step=5)
        mcav, tallies = run_steps([("a", ZERO)] * 50 + [("b", ALL_SAFE)],
                                  config)
        assert mcav == {"a": 0.0, "b": 0.0}
        assert tallies["a"][0] == 50

    def test_migrating_cell_logs_all_its_antigens(self):
        # csm 200 then 400 > 250: migrates mature on the second step, carrying
        # both copies; its naive replacement holds only "c"
        mcav, tallies = run_steps(
            [("a", ALL_PAMP), ("b", ALL_PAMP), ("c", ALL_SAFE)], one_cell(250)
        )
        assert mcav == {"a": 1.0, "b": 1.0, "c": 0.0}
        assert tallies == {"a": (1, 1), "b": (1, 1), "c": (1, 0)}

    def test_deterministic(self):
        signal_rng = np.random.default_rng(99)
        steps = [(f"t{i % 3}", signal_rng.random(3) * 100) for i in range(30)]
        config = small_config(multiplier=2)
        assert run_steps(steps, config, seed=5) == run_steps(steps, config,
                                                             seed=5)

    def test_store_drained_every_step(self):
        # no cell ever migrates: the flush still presents every copy once
        config = small_config(threshold_low=1e9, threshold_high=1e9,
                              multiplier=7)
        _, tallies = run_steps([("a", ALL_PAMP)] * 20, config)
        assert tallies["a"][0] == 7 * 20


def run_dca(antigens, signals, config, seed):
    return run_dca_with_log(antigens, signals, config, seed)[0]


class TestRunDca:
    def antigens(self, n=200):
        return [i % 4 for i in range(n)]

    def test_all_pamp_stream_gives_mcav_one(self):
        antigens = self.antigens()
        signals = np.tile(ALL_PAMP, (len(antigens), 1))
        mcav = run_dca(antigens, signals, small_config(), seed=1)
        assert mcav.tolist() == [1.0] * 4

    def test_all_safe_stream_gives_mcav_zero(self):
        antigens = self.antigens()
        signals = np.tile(ALL_SAFE, (len(antigens), 1))
        mcav = run_dca(antigens, signals, small_config(), seed=1)
        assert mcav.tolist() == [0.0] * 4

    def test_identity_transforms_match_base(self):
        antigens = self.antigens()
        rng = np.random.default_rng(9)
        signals = rng.random((len(antigens), 3)) * 100
        base = run_dca(antigens, signals, small_config(), seed=3)
        k1w1 = run_dca(antigens, signals,
                       small_config(multiplier=1, window=1), seed=3)
        assert np.array_equal(base, k1w1)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_antigen_conservation(self, k):
        antigens = self.antigens(150)
        rng = np.random.default_rng(2)
        signals = rng.random((len(antigens), 3)) * 100
        _, log = run_dca_with_log(
            antigens, signals, small_config(multiplier=k), seed=4
        )
        assert log.total_presentations == k * len(antigens)

    def test_mcav_values_in_unit_interval(self):
        antigens = self.antigens()
        rng = np.random.default_rng(11)
        signals = rng.random((len(antigens), 3)) * 100
        mcav = run_dca(antigens, signals, small_config(), seed=5)
        assert ((0.0 <= mcav) & (mcav <= 1.0)).all()

    def test_run_repeatable(self):
        antigens = self.antigens()
        rng = np.random.default_rng(13)
        signals = rng.random((len(antigens), 3)) * 100
        config = small_config(multiplier=2, window=3)
        assert np.array_equal(run_dca(antigens, signals, config, seed=8),
                              run_dca(antigens, signals, config, seed=8))

    def test_empty_stream(self):
        assert len(run_dca([], np.empty((0, 3)), small_config(), seed=1)) == 0

    def test_traced_peak_per_step_is_bounded(self):
        # A run holds per step its three output signals and the lifetime ids
        # of its 10 copy holders, about 80 bytes, and no Python object. The
        # bound fails an engine that holds the holder ids as int64 (about
        # 120 bytes a step) or the signals as lists of floats (about 270).
        steps = 10_000
        rng = np.random.default_rng(3)
        antigens = rng.integers(0, 50, steps)
        signals = rng.random((steps, 3)) * 100
        tracemalloc.start()
        try:
            run_dca_with_log(antigens, signals, DcaConfig(multiplier=100),
                             seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / steps < 110

    @pytest.mark.parametrize("k", [2, 5, 100, 1000])
    def test_shuffling_one_buffer_draws_as_permutation(self, k):
        # The engine reshuffles one buffer per step where the draw-order
        # contract names rng.permutation(k): the generator states must agree.
        shuffled, permuted = (np.random.default_rng(7) for _ in range(2))
        order = np.arange(k)
        for _ in range(3):
            shuffled.shuffle(order)
            permuted.permutation(k)
            assert (shuffled.bit_generator.state
                    == permuted.bit_generator.state)

    def test_mcav_table_export(self, tmp_path):
        antigens = self.antigens()
        signals = np.tile(ALL_PAMP, (len(antigens), 1))
        mcav, log = run_dca_with_log(antigens, signals, small_config(), seed=1)
        path = tmp_path / "mcav.tsv"
        write_mcav_table(mcav, log, mcav > 0.8, path, ["d", "c", "b", "a"])
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == [
            "antigen_type", "total_count", "mature_count", "mcav", "class"
        ]
        assert lines[1:] == [f"{name}\t50\t50\t1.000000\t{ANOMALOUS}"
                             for name in "abcd"]


class TestTally:
    """The copy weights on hand-built holders, with no run. Lifetime 0 is
    semi-mature and lifetime 1 mature, so a holder is 1 where it presents
    its copies mature."""

    CODES = np.array([0, 2, 0, 3])  # code 1 never occurs
    CONTEXTS = np.array([False, True])

    def test_columns_hold_the_ceiling_of_their_round_robin_share(self):
        # k = 25 dealt over 10 cells: the columns hold 3,3,3,3,3,2,2,2,2,2
        holders = np.array([[1] * 10,
                            [1] * 5 + [0] * 5,
                            [0] * 5 + [1] * 5,
                            [0] * 4 + [1, 1] + [0] * 4], dtype=np.uint16)
        mcav, log = _tally(self.CODES, holders, self.CONTEXTS, 25, 10)
        assert log.totals.tolist() == [50, 0, 25, 25]
        assert log.matures.tolist() == [25 + 10, 0, 15, 3 + 2]
        assert mcav[[0, 2, 3]].tolist() == [0.7, 0.6, 0.2]
        assert math.isnan(mcav[1])

    def test_one_copy_is_one_column_of_weight_one(self):
        holders = np.array([[1], [0], [0], [1]], dtype=np.uint16)
        mcav, log = _tally(self.CODES, holders, self.CONTEXTS, 1, 10)
        assert log.totals.tolist() == [2, 0, 1, 1]
        assert log.matures.tolist() == [1, 0, 0, 1]
        assert mcav[[0, 2, 3]].tolist() == [0.5, 0.0, 1.0]
        assert math.isnan(mcav[1])


@pytest.fixture(scope="module", params=["kddgen-3000", "golden"])
def stream(request):
    """Antigen codes and raw signals of a 3,000-record ``bench/kddgen.py``
    stream or of the golden reports' stream."""
    lines = (kddgen_text(3_000, 1).splitlines()
             if request.param == "kddgen-3000" else golden_lines())
    table = parse_lines(lines)
    return antigen_stream(table), signal_stream(table,
                                                default_signal_config(table))


def mature_share(codes, contexts):
    """Each type's share of records presented in the mature context."""
    return np.bincount(codes, weights=contexts) / np.bincount(codes)


def segment_contexts(outputs, threshold):
    """Each step's context when all cells share one state: the sums are
    added in the engine's order, a segment ends where csm exceeds the
    threshold and takes the context of its sums, and so does the tail."""
    contexts = np.empty(len(outputs), dtype=bool)
    csm = semi = mat = 0.0
    start = 0
    for t, (d_csm, d_semi, d_mat) in enumerate(outputs.tolist()):
        csm = csm + d_csm
        semi += d_semi
        mat += d_mat
        if csm > threshold:
            contexts[start:t + 1] = semi <= mat
            csm = semi = mat = 0.0
            start = t + 1
    contexts[start:] = semi <= mat
    return contexts


@pytest.mark.parametrize("window", [1, 10])
@pytest.mark.parametrize("k", [1, 5, 100])
class TestDrawFreeLimits:
    """Two regimes where the answer needs no random draw, so the MCAV is
    pinned exactly whatever the draw order."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_first_sample_migration_gives_the_one_sample_limit(
            self, stream, k, window, seed):
        # R1: csm is never negative, so a threshold of -1 migrates every
        # selected cell at its first sample, in its record's own context.
        codes, signals = stream
        outputs = apply_time_window(signals, window) @ DEFAULT_WEIGHTS
        contexts = outputs[:, 1] <= outputs[:, 2]
        assert 0 < contexts.mean() < 1
        config = DcaConfig(threshold_low=-1, threshold_high=-1,
                           multiplier=k, window=window)
        mcav, _ = run_dca_with_log(codes, signals, config, seed)
        assert np.array_equal(mcav, mature_share(codes, contexts))

    @pytest.mark.parametrize("threshold", [500, 5000])
    def test_one_shared_state_splits_the_stream_into_segments(
            self, stream, k, window, threshold):
        # R2: every cell samples every step from the same start under the
        # same threshold, so all cells hold the same sums and migrate
        # together.
        codes, signals = stream
        outputs = apply_time_window(signals, window) @ DEFAULT_WEIGHTS
        contexts = segment_contexts(outputs, threshold)
        assert 0 < contexts.mean() < 1
        config = DcaConfig(population_size=10, cells_per_step=10,
                           threshold_low=threshold, threshold_high=threshold,
                           multiplier=k, window=window)
        mcav, _ = run_dca_with_log(codes, signals, config, seed=1)
        assert np.array_equal(mcav, mature_share(codes, contexts))


class TestConfigValidation:
    def test_bad_population(self):
        with pytest.raises(ConfigurationError):
            DcaConfig(population_size=0)

    def test_cells_per_step_above_population(self):
        with pytest.raises(ConfigurationError):
            DcaConfig(population_size=5, cells_per_step=6)

    def test_inverted_threshold_range(self):
        with pytest.raises(ConfigurationError):
            DcaConfig(threshold_low=300, threshold_high=100)

"""Elementwise equivalence of the batch model entry points vs. the scalar ones.

These are the methods :class:`~repro.cluster.batch.BatchStepper` calls each
step: the transcoder's activity factor and pipeline, the fleet allocation
(each checked against ``MulticoreServer.allocate`` server by server), and
the models under them — WPP speedup, busy-core power, decode cycles, encode
time, PSNR and bitrate, and the rate, cycle and voltage helpers behind
them — plus the MAMUT driver's state discretisation and reward.  The batch
engine's seed-for-seed guarantee rests on them producing *bitwise identical*
doubles to the scalar methods the scalar engine calls; these property tests
pin that down model by model over randomized inputs (including bin edges and
operating-point grid values, where off-by-one-ULP bugs would hide).  The
reward batch is the one documented exception: its in-range PSNR term goes
through ``np.exp``, so it is compared to tight tolerance instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.observation import Observation
from repro.core.rewards import RewardFunction
from repro.core.states import StateSpace, SystemState
from repro.errors import EncodingError, PlatformError
from repro.hevc.complexity import ComplexityModel, ComplexityModelParameters
from repro.hevc.decoder import HevcDecoder
from repro.hevc.encoder import HevcEncoder
from repro.hevc.params import EncoderConfig, Preset
from repro.hevc.rd_model import RateDistortionModel, RdModelParameters
from repro.hevc.transcoder import Transcoder
from repro.hevc.wpp import WppModel, WppModelParameters
from repro.platform.dvfs import DvfsPolicy
from repro.platform.power import PowerModel, PowerModelParameters, VoltageTable
from repro.platform.server import FleetAllocator, MulticoreServer, SessionDemand
from repro.platform.topology import CpuTopology
from repro.video.content import FrameContent
from repro.video.sequence import Frame

RNG = np.random.default_rng(20260726)
N = 400


def random_inputs(n=N):
    qp = RNG.integers(0, 52, size=n)
    complexity = RNG.uniform(0.4, 2.0, size=n)
    motion = RNG.uniform(0.0, 1.0, size=n)
    scene = RNG.random(n) < 0.15
    presets = [list(Preset)[i] for i in RNG.integers(0, len(Preset), size=n)]
    dims = [(1920, 1080), (832, 480)]
    wh = [dims[i] for i in RNG.integers(0, 2, size=n)]
    threads = RNG.integers(1, 21, size=n)
    freq = RNG.uniform(1.2, 3.2, size=n)
    return qp, complexity, motion, scene, presets, wh, threads, freq


def make_frames(qp, complexity, motion, scene, wh):
    return [
        Frame(
            index=i,
            width=wh[i][0],
            height=wh[i][1],
            content=FrameContent(
                complexity=float(complexity[i]),
                motion=float(motion[i]),
                scene_change=bool(scene[i]),
            ),
        )
        for i in range(len(qp))
    ]


class TestRdModelBatch:
    def setup_method(self):
        self.model = RateDistortionModel()
        (
            self.qp,
            self.complexity,
            self.motion,
            self.scene,
            self.presets,
            self.wh,
            _,
            _,
        ) = random_inputs()
        self.frames = make_frames(
            self.qp, self.complexity, self.motion, self.scene, self.wh
        )
        self.configs = [
            EncoderConfig(qp=int(q), threads=1, preset=p)
            for q, p in zip(self.qp, self.presets)
        ]

    def test_psnr_batch_bitwise_equals_scalar(self):
        batch = self.model.psnr_db_batch(
            self.qp,
            self.complexity,
            self.motion,
            np.array([p.quality_gain_db for p in self.presets]),
        )
        scalar = [
            self.model.psnr_db(f, c) for f, c in zip(self.frames, self.configs)
        ]
        assert batch.tolist() == scalar

    def test_bits_per_pixel_batch_bitwise_equals_scalar(self):
        batch = self.model.bits_per_pixel_batch(
            self.qp,
            self.complexity,
            self.motion,
            self.scene,
            np.array([p.compression_gain for p in self.presets]),
        )
        scalar = [
            self.model.bits_per_pixel(f, c)
            for f, c in zip(self.frames, self.configs)
        ]
        assert batch.tolist() == scalar

    def test_bitrate_batch_bitwise_equals_scalar(self):
        pixels = np.array([w * h for w, h in self.wh])
        batch = self.model.bitrate_mbps_batch(
            self.qp,
            self.complexity,
            self.motion,
            self.scene,
            pixels,
            24.0,
            np.array([p.compression_gain for p in self.presets]),
        )
        scalar = [
            self.model.bitrate_mbps(f, c, 24.0)
            for f, c in zip(self.frames, self.configs)
        ]
        assert batch.tolist() == scalar

    def test_custom_params_shared_table(self):
        model = RateDistortionModel(
            RdModelParameters(ref_qp=28, qp_per_rate_halving=5.5)
        )
        qp = np.arange(0, 52)
        frames = make_frames(
            qp, np.ones(52), np.zeros(52), np.zeros(52, bool), [(832, 480)] * 52
        )
        batch = model.bits_per_pixel_batch(
            qp, np.ones(52), np.zeros(52), np.zeros(52, bool)
        )
        scalar = [
            model.bits_per_pixel(f, EncoderConfig(qp=int(q), threads=1))
            for f, q in zip(frames, qp)
        ]
        assert batch.tolist() == scalar

    def test_qp_out_of_range_rejected(self):
        with pytest.raises(EncodingError):
            self.model.psnr_db_batch(np.array([52]), 1.0, 0.0)


class TestComplexityModelBatch:
    def setup_method(self):
        self.model = ComplexityModel()
        (
            self.qp,
            self.complexity,
            self.motion,
            self.scene,
            self.presets,
            self.wh,
            _,
            self.freq,
        ) = random_inputs()
        self.frames = make_frames(
            self.qp, self.complexity, self.motion, self.scene, self.wh
        )
        self.configs = [
            EncoderConfig(qp=int(q), threads=1, preset=p)
            for q, p in zip(self.qp, self.presets)
        ]
        self.pixels = np.array([w * h for w, h in self.wh])
        self.effort = np.array([p.effort_factor for p in self.presets])

    def test_encode_cycles_batch_bitwise_equals_scalar(self):
        batch = self.model.encode_cycles_batch(
            self.qp, self.pixels, self.complexity, self.motion, self.scene,
            self.effort,
        )
        scalar = [
            self.model.encode_cycles(f, c)
            for f, c in zip(self.frames, self.configs)
        ]
        assert batch.tolist() == scalar

    def test_decode_cycles_batch_bitwise_equals_scalar(self):
        batch = self.model.decode_cycles_batch(self.pixels, self.complexity)
        scalar = [self.model.decode_cycles(f) for f in self.frames]
        assert batch.tolist() == scalar

    def test_encode_time_batch_bitwise_equals_scalar(self):
        speedup = RNG.uniform(1.0, 10.0, size=N)
        batch = self.model.encode_time_seconds_batch(
            self.qp, self.pixels, self.complexity, self.motion, self.scene,
            self.freq, speedup, self.effort,
        )
        scalar = [
            self.model.encode_time_seconds(
                f, c, float(fr), float(sp)
            )
            for f, c, fr, sp in zip(self.frames, self.configs, self.freq, speedup)
        ]
        assert batch.tolist() == scalar

    def test_custom_params_shared_table(self):
        model = ComplexityModel(
            ComplexityModelParameters(qp_sensitivity=0.05, ref_qp=26)
        )
        qp = np.arange(0, 52)
        frames = make_frames(
            qp, np.ones(52), np.zeros(52), np.zeros(52, bool), [(832, 480)] * 52
        )
        batch = model.encode_cycles_batch(
            qp,
            np.full(52, 832 * 480),
            np.ones(52),
            np.zeros(52),
            np.zeros(52, bool),
        )
        scalar = [
            model.encode_cycles(f, EncoderConfig(qp=int(q), threads=1))
            for f, q in zip(frames, qp)
        ]
        assert batch.tolist() == scalar

    def test_invalid_inputs_rejected(self):
        with pytest.raises(EncodingError):
            self.model.encode_time_seconds_batch(
                np.array([32]), np.array([100]), np.array([1.0]),
                np.array([0.0]), np.array([False]),
                np.array([0.0]), np.array([1.0]),
            )


class TestWppModelBatch:
    def test_speedup_and_efficiency_bitwise_equal_scalar(self):
        model = WppModel()
        cases = [
            (t, w, h)
            for t in range(1, 21)
            for (w, h) in ((1920, 1080), (832, 480), (640, 360))
        ]
        threads = np.array([t for t, _, _ in cases])
        width = np.array([w for _, w, _ in cases])
        height = np.array([h for _, _, h in cases])
        batch_speedup = model.speedup_batch(threads, width, height)
        scalar_speedup = [model.speedup(t, w, h) for t, w, h in cases]
        scalar_eff = [model.efficiency(t, w, h) for t, w, h in cases]
        assert batch_speedup.tolist() == scalar_speedup
        # The batch engine derives thread activity as speedup / threads.
        assert (batch_speedup / threads).tolist() == scalar_eff

    def test_wpp_disabled_is_unity(self):
        model = WppModel()
        result = model.speedup_batch(
            np.array([4, 8]), np.array([1920, 1920]), np.array([1080, 1080]),
            wpp=np.array([False, True]),
        )
        assert result[0] == 1.0
        assert result[1] == model.speedup(8, 1920, 1080)

    def test_invalid_threads_rejected(self):
        with pytest.raises(EncodingError):
            WppModel().speedup_batch(
                np.array([0]), np.array([1920]), np.array([1080])
            )


class TestPowerModelBatch:
    def test_voltage_batch_bitwise_equals_scalar(self):
        table = VoltageTable()
        grid = [f for f, _ in VoltageTable._DEFAULT_POINTS]
        freqs = np.concatenate(
            [np.array(grid), RNG.uniform(0.8, 3.6, size=200)]
        )
        batch = table.voltage_batch(freqs)
        scalar = [table.voltage(float(f)) for f in freqs]
        assert batch.tolist() == scalar
        rel = table.relative_dynamic_batch(freqs)
        scalar_rel = [table.relative_dynamic(float(f)) for f in freqs]
        assert rel.tolist() == scalar_rel

    def test_busy_core_power_batch_bitwise_equals_scalar(self):
        model = PowerModel()
        freqs = RNG.uniform(1.2, 3.2, size=200)
        activity = RNG.uniform(0.0, 1.0, size=200)
        smt = RNG.integers(1, 3, size=200)
        batch = model.busy_core_power_batch(freqs, activity, smt)
        scalar = [
            model.busy_core_power(float(f), float(a), int(s))
            for f, a, s in zip(freqs, activity, smt)
        ]
        assert batch.tolist() == scalar
        # A column of SMT occupancies evaluates every core at both at once.
        both = model.busy_core_power_batch(freqs, activity, np.array([[1], [2]]))
        assert both.tolist() == [
            [model.busy_core_power(float(f), float(a), s) for f, a in zip(freqs, activity)]
            for s in (1, 2)
        ]

    def test_invalid_activity_rejected(self):
        with pytest.raises(PlatformError):
            PowerModel().busy_core_power_batch(
                np.array([3.2]), np.array([1.5])
            )


class TestTranscoderBatch:
    """The pipeline the batch engine evaluates, against the scalar one."""

    @staticmethod
    def custom_transcoder():
        encoder = HevcEncoder(
            rd_model=RateDistortionModel(
                RdModelParameters(ref_qp=30, qp_per_rate_halving=5.5)
            ),
            complexity_model=ComplexityModel(
                ComplexityModelParameters(
                    base_cycles_per_pixel=260.0, qp_sensitivity=0.04, motion_weight=0.45
                )
            ),
            wpp_model=WppModel(
                WppModelParameters(ctu_size=32, sync_overhead_per_thread=0.01)
            ),
            delivery_fps=30,
        )
        decoder = HevcDecoder(
            ComplexityModel(ComplexityModelParameters(decode_fraction=0.03))
        )
        return Transcoder(encoder=encoder, decoder=decoder)

    @pytest.mark.parametrize("custom", [False, True], ids=["default", "custom"])
    def test_transcode_and_activity_batch_bitwise_equal_scalar(self, custom):
        transcoder = self.custom_transcoder() if custom else Transcoder()
        qp, complexity, motion, scene, presets, wh, threads, freq = random_inputs()
        frames = make_frames(qp, complexity, motion, scene, wh)
        configs = [
            EncoderConfig(qp=int(q), threads=int(t), preset=p)
            for q, t, p in zip(qp, threads, presets)
        ]
        # Contention below 1 (and at it), so max(1, speedup * scale) bites.
        scale = np.where(RNG.random(N) < 0.2, 1.0, RNG.uniform(0.05, 1.0, size=N))
        width = np.array([w for w, _ in wh])
        height = np.array([h for _, h in wh])

        activity = transcoder.activity_factor_batch(threads, width, height)
        assert activity.tolist() == [
            transcoder.activity_factor(f, c) for f, c in zip(frames, configs)
        ]

        batch = transcoder.transcode_frame_batch(
            qp,
            threads,
            width,
            height,
            width * height,
            complexity,
            motion,
            scene,
            np.array([p.effort_factor for p in presets]),
            np.array([p.quality_gain_db for p in presets]),
            np.array([p.compression_gain for p in presets]),
            freq,
            scale,
        )
        results = [
            transcoder.transcode_frame(f, c, float(fr), float(sc))
            for f, c, fr, sc in zip(frames, configs, freq, scale)
        ]
        assert [column.tolist() for column in batch] == [
            [r.total_time_s for r in results],
            [r.fps for r in results],
            [r.psnr_db for r in results],
            [r.bitrate_mbps for r in results],
        ]


class TestFleetAllocatorBatch:
    """``allocate_batch`` over a fleet equals ``allocate`` per server."""

    TOPOLOGIES = (
        CpuTopology(),
        CpuTopology(sockets=1, cores_per_socket=4, smt_efficiency=0.6),
        CpuTopology(sockets=1, cores_per_socket=8, smt=1),
    )
    POWER_MODELS = (
        PowerModel(),
        PowerModel(PowerModelParameters(base_power_w=20.0, smt_activity_bonus=0.4)),
        PowerModel(
            PowerModelParameters(core_dynamic_w=4.6, idle_activity_fraction=0.25),
            VoltageTable({1.2: 0.78, 1.6: 0.84, 2.0: 0.92, 2.6: 1.02, 3.2: 1.18}),
        ),
    )
    GRID = (1.2, 1.4, 1.6, 1.9, 2.3, 2.6, 2.9, 3.2)

    def random_fleet(self):
        servers = [
            MulticoreServer(
                topology=self.TOPOLOGIES[RNG.integers(3)],
                power_model=self.POWER_MODELS[RNG.integers(3)],
                dvfs_policy=(
                    DvfsPolicy.CHIP_WIDE if RNG.random() < 0.3 else DvfsPolicy.PER_CORE
                ),
            )
            for _ in range(RNG.integers(1, 9))
        ]
        counts = RNG.integers(0, 14, size=len(servers))
        # Nine or more sessions on one server: a pairwise or blocked
        # reduction of its session powers would round differently.
        counts[RNG.integers(len(servers))] = RNG.integers(9, 14)
        # Light servers leave cores idle; heavy ones oversubscribe.
        max_threads = np.repeat(RNG.choice([3, 20], size=len(servers)), counts)
        return servers, counts, RNG.integers(1, max_threads + 1)

    def test_allocate_batch_bitwise_equals_allocate(self):
        for _ in range(150):
            servers, counts, threads = self.random_fleet()
            lanes = int(counts.sum())
            freq = np.where(
                RNG.random(lanes) < 0.5,
                np.array(self.GRID)[RNG.integers(len(self.GRID), size=lanes)],
                RNG.uniform(1.2, 3.2, size=lanes),
            )
            activity = RNG.uniform(0.0, 1.0, size=lanes)

            scale, power = FleetAllocator(servers).allocate_batch(
                counts, threads, freq, activity
            )
            start = 0
            for server, count, server_power in zip(
                servers, counts.tolist(), power.tolist()
            ):
                lane = slice(start, start + count)
                allocation = server.allocate(
                    SessionDemand(f"s{i}", int(t), float(f), float(a))
                    for i, (t, f, a) in enumerate(
                        zip(threads[lane], freq[lane], activity[lane])
                    )
                )
                assert server_power == allocation.total_power_w
                assert scale[lane].tolist() == [allocation.contention_scale] * count
                start += count


class TestStateSpaceBatch:
    def test_discretize_batch_matches_scalar_including_edges(self):
        space = StateSpace()
        # Random values plus every bin edge exactly (ties are where
        # searchsorted sides go wrong).
        fps = np.concatenate(
            [
                RNG.uniform(0.0, 40.0, size=300),
                np.array([space.fps_target, *space.fps_edges]),
            ]
        )
        n = len(fps)
        psnr = np.concatenate(
            [
                RNG.uniform(20.0, 60.0, size=n - len(space.psnr_edges)),
                np.array(space.psnr_edges),
            ]
        )
        bitrate = np.concatenate(
            [
                RNG.uniform(0.0, 10.0, size=n - len(space.bitrate_edges_mbps)),
                np.array(space.bitrate_edges_mbps),
            ]
        )
        power = np.concatenate(
            [
                RNG.uniform(50.0, 150.0, size=n - 1),
                np.array([space.power_cap_w]),
            ]
        )
        bins = space.discretize_batch(fps, psnr, bitrate, power)
        assert bins.shape == (n, 4)
        for i in range(n):
            observation = Observation(
                fps=float(fps[i]),
                psnr_db=float(psnr[i]),
                bitrate_mbps=float(bitrate[i]),
                power_w=float(power[i]),
            )
            assert SystemState(*bins[i].tolist()) == space.discretize(observation)


class TestRewardFunctionBatch:
    def test_total_batch_matches_scalar(self):
        fn = RewardFunction()
        cfg = fn.config
        fps = np.concatenate(
            [RNG.uniform(5.0, 40.0, size=200), np.array([cfg.fps_target])]
        )
        n = len(fps)
        psnr = RNG.uniform(20.0, 60.0, size=n)
        bitrate = RNG.uniform(0.0, 10.0, size=n)
        power = RNG.uniform(50.0, 150.0, size=n)
        batch = fn.total_batch(fps, psnr, bitrate, power)
        for i in range(n):
            scalar = fn.total(
                Observation(
                    fps=float(fps[i]),
                    psnr_db=float(psnr[i]),
                    bitrate_mbps=float(bitrate[i]),
                    power_w=float(power[i]),
                )
            )
            assert batch[i] == scalar

    def test_penalty_branches_are_exact(self):
        fn = RewardFunction()
        cfg = fn.config
        # Below-target FPS, out-of-range PSNR, violated bitrate and power:
        # every term takes its penalty branch, no transcendentals involved.
        batch = fn.total_batch(
            np.array([cfg.fps_target - 1.0]),
            np.array([cfg.psnr_max_db + 5.0]),
            np.array([cfg.bandwidth_mbps + 1.0]),
            np.array([cfg.power_cap_w]),
        )
        scalar = fn.total(
            Observation(
                fps=cfg.fps_target - 1.0,
                psnr_db=cfg.psnr_max_db + 5.0,
                bitrate_mbps=cfg.bandwidth_mbps + 1.0,
                power_w=cfg.power_cap_w,
            )
        )
        assert batch[0] == scalar

"""Print the untraced median CPU µs per call of each stage of one genuine
verify attempt, so that a speed-up can name the stage it moved (the
benchmark's tracer books the ARQ and the attitude scan as `protocol` self
time). ROADMAP item 25a's stage spans in `src/` supersede this script. Run
from the repository root: `PYTHONPATH=src python3 tools/stage_times.py`.

The verify workload's layout: `make_cohort(3, seed=1000)`, 8 s sessions at
a clock offset of 0.08 s, subject 0 enrolled from 6 sessions at seed offsets
10-15, its genuine capture at seed offset 60 sent at 30 % loss. Each stage
takes what the one before gave. The stages run in turn, `--repeat` rounds,
so a drift of the host's speed falls on all of them alike.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from syncgait.features import compute_features
from syncgait.gait import cycle_feature_rows, gait_representation, imu_chains
from syncgait.orientation import ahrs_streams, rotation_matrices
from syncgait.pipeline import (Capture, enroll_subjects, imu_speed_channels,
                               video_speed_channels)
from syncgait.protocol import (CHUNK_S, ChannelModel, SessionConfig,
                               _time_sync, _Transcript, exchange_with_arq)
from syncgait.series import ImuSeries, Series1D, wavelet_denoise
from syncgait.syncing import ClockOffsetEstimate, align
from syncgait.synth import generate_session, make_cohort


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=200)
    repeat = parser.parse_args().repeat
    subject = make_cohort(3, seed=1000)[0]
    offset = ClockOffsetEstimate.known(0.08)
    cfg = SessionConfig(channel=ChannelModel(0.3), clock_offset=0.08,
                        sample_duration=8.0)
    sessions = [generate_session(subject, duration=8.0, clock_offset=0.08,
                                 seed_offset=10 + k) for k in range(6)]
    [enrollment] = enroll_subjects([[Capture(imu, kp, offset)
                                     for imu, kp, _ in sessions]])
    imu, kp, _ = generate_session(subject, duration=8.0, clock_offset=0.08,
                                  seed_offset=60)
    rng = np.random.default_rng(0)
    chunks = -(-len(imu) // round(CHUNK_S * imu.sample_rate))
    stages = []

    def stage(name, call, *args):
        stages.append((name, call, args))
        return call(*args)

    stage("exchange_with_arq", exchange_with_arq, chunks, cfg.channel, rng)
    stage("_time_sync", lambda: _time_sync(cfg, rng, _Transcript(), 0.0))
    d = stage("  wavelet_denoise", wavelet_denoise, Series1D(
        np.hstack([imu.acc, imu.gyro]), rate=imu.sample_rate)).values
    q = stage("  ahrs_streams", ahrs_streams, [ImuSeries(
        imu.t, d[:, :3], d[:, 3:], sample_rate=imu.sample_rate)])[0]
    stage("  rotation", lambda: rotation_matrices(q) @ d[:, :3, None])
    [chain] = stage("imu_chains", imu_chains, [imu])
    [speed] = stage("imu_speed_channels", imu_speed_channels, [chain])
    [(video, measured)] = stage("video_speed_channels",
                                video_speed_channels, [kp])
    pair = stage("align", align, speed, video, offset,
                 np.ones(len(speed), dtype=bool), measured)
    row = stage("compute_features", compute_features, [pair])[0]
    cycles = stage("gait_representation", gait_representation, chain)
    rows = stage("cycle_feature_rows", cycle_feature_rows, cycles)
    stage("consistency_model.score", enrollment.consistency_model.score,
          row[enrollment.feature_mask])
    stage("gait_model.scores", enrollment.gait_model.scores, rows)

    times = [[] for _ in stages]
    for _ in range(repeat):
        for (_, call, args), spent in zip(stages, times):
            start = time.process_time_ns()
            call(*args)
            spent.append(time.process_time_ns() - start)
    print(f"{'stage':<26} {'µs/call':>10}")
    for (name, _, _), spent in zip(stages, times):
        print(f"{name:<26} {np.median(spent) / 1e3:10.1f}")


if __name__ == "__main__":
    main()

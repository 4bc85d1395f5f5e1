"""Cross-modal gait mutual authentication.

A phone-side IMU gait pipeline and a drone-side keypoint pipeline are fused
into two per-user one-class checks (cross-modal consistency and gait
signature), exercised by a lossy-channel protocol simulator against a
parametric synthetic cohort with relay / hijack / mimicry attack generators.
"""

from .classify import (OcSvmModel, Scaler, deserialize_model, fit_ocsvm_fixed,
                       serialize_model, train_ocsvm, train_ocsvm_calibrated)
from .errors import SyncGaitError
from .features import (FEATURE_NAMES, FeatureVector, FisherReport,
                       compute_features, fisher_select)
from .gait import (GaitCycle, ImuChain, cycle_boundaries,
                   cycle_feature_vector, gait_representation, imu_chain,
                   normalize_cycle, segment_cycles)
from .metrics import EvalReport, evaluate, fuse, roc_points_csv
from .orientation import (EulerAngles, Quaternion, ahrs_stream,
                          euler_to_quaternion, integrate_velocity,
                          project_body_relative, quaternion_to_euler)
from .pipeline import (Enrollment, aligned_speeds, consistency_score,
                       consistency_vector, enroll, gait_score, gait_vectors,
                       imu_speed_channel, video_speed_channel)
from .posture import (AdctConfig, SpectralBand, adaptive_bandpass,
                      adct_cutoff, adct_smooth, estimate_band,
                      histogram_entropy, mjckf_correct)
from .protocol import (ChannelModel, DecisionRecord, SessionConfig,
                       SessionResult, SessionState, attempt_scores,
                       exchange_with_arq, inject_loss, run_session)
from .series import JOINT_INDEX, ImuSeries, KeypointSeries, Series1D
from .syncing import (AlignedPair, ClockOffsetEstimate, align,
                      kalman_track_offset, two_way_offset)
from .synth import (CameraModel, GroundTruth, HijackAttack, MimicryAttack,
                    RelayAttack, SubjectParams, generate_attack,
                    generate_session, make_cohort)

__version__ = "0.1.0"

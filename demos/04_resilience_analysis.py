"""Resilience analysis of a scripted disturbance, no learning involved.

Drives the reference grid through a hand-written event: normal operation,
then an adversary ratchets every tap changer down (raising LV voltages),
then an operator walks the taps back to neutral.  The resulting performance
trajectory is segmented into plan / absorb / recover / adapt stretches and
checked against the failure threshold the control-asymmetry property uses.
"""

import numpy as np

from gridduel import (
    Action,
    ActuatorRef,
    PerformanceConfig,
    apply_actions,
    arl_poc_grid,
    check_asymmetry_series,
    classify_resilience_phases,
    initial_world,
    operational_phase,
    system_performance,
)

cfg = PerformanceConfig(p_fail=0.55)
world = initial_world(arl_poc_grid())

def tap_actions(label):
    return [Action(ActuatorRef("transformer", i), label) for i in range(6)]

script = [("hold", 4), ("decrement", 8), ("hold", 4), ("increment", 8), ("hold", 6)]
p_series = []
phases = []
for label, repeats in script:
    for _ in range(repeats):
        world = apply_actions(world, tap_actions(label))
        p_series.append(system_performance(world, cfg))
        phases.append(operational_phase(world.solution.v_pu, world.solution.converged, cfg))

print("step  p(m_t)  operating state")
for t, (p, phase) in enumerate(zip(p_series, phases)):
    print(f"{t:>4}  {p:.4f}  {phase}")

print("\nresilience segmentation of the trajectory:")
for seg in classify_resilience_phases(p_series, cfg):
    lo = min(p_series[seg.start : seg.end + 1])
    print(f"  {seg.phase:<7} steps {seg.start:>2}..{seg.end:<2}  (lowest p {lo:.4f})")

holds, violation = check_asymmetry_series(p_series, cfg.p_fail, t0=0)
if holds:
    print(f"\nperformance never fell to the failure threshold {cfg.p_fail}")
else:
    print(f"\nfailure threshold {cfg.p_fail} was breached at step {violation}:")
    print("an operator without a grace window would count this system as failed.")

grace = len(p_series) - np.argmax((np.array(p_series) <= cfg.p_fail)[::-1]) - 1
holds, _ = check_asymmetry_series(p_series, cfg.p_fail, t0=int(grace))
print(f"granting a grace window up to step {grace}, the asymmetry property "
      f"{'holds' if holds else 'still fails'}.")

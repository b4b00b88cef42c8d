"""Simulation substrate: the virtual clock and the seeded fault schedule."""

from repro.sim.clock import ClockTrack, VirtualClock
from repro.sim.schedule import FaultSchedule, FaultWindow

__all__ = ["ClockTrack", "FaultSchedule", "FaultWindow", "VirtualClock"]

"""The shared virtual timeline: nothing in the system sleeps."""

from __future__ import annotations

import threading

from repro.errors import ClockTrackError, SettingError


class ClockTrack:
    """A private branch of virtual time for one concurrent task.

    While a track is open on a thread, that thread's ``now()`` /
    ``advance()`` calls read and grow ``origin + offset`` instead of the
    shared timeline, so parallel tasks each accumulate their *own*
    virtual elapsed time from a common starting instant.  Tracks are
    joined back into the shared clock by a makespan over the per-track
    offsets (:func:`repro.mediator.pool.run_on_tracks`).
    """

    __slots__ = ("origin", "offset")

    def __init__(self, origin: float) -> None:
        self.origin = float(origin)
        self.offset = 0.0

    def __repr__(self) -> str:
        return f"ClockTrack(origin={self.origin}, offset={self.offset})"


class VirtualClock:
    """A shared simulated timeline (floats, no real sleeping).

    Latency injection, retry backoff, breaker reset timeouts, leases,
    outage and partition windows all advance / read the same clock, so
    their interactions are deterministic and instantaneous to test.

    The clock is thread-safe.  Concurrent fan-out additionally uses
    *tracks* (:meth:`open_track` / :meth:`close_track`): a task running
    on its own track sees virtual time progress independently of its
    siblings, which keeps per-task backoff and deadline arithmetic
    deterministic no matter how the OS schedules the worker threads.

    Tracks **nest** per thread: the serving layer measures one source
    call on an inner track while a fan-out job's outer track stays
    open, and the serving loop itself runs whole queries on tracks
    branched off their virtual start instants.  Each thread holds a
    stack; only the top track is live, and :meth:`close_track` must be
    handed that top track (strict LIFO), so an unbalanced caller fails
    loudly instead of corrupting a sibling's arithmetic.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _track_stack(self) -> list[ClockTrack]:
        stack = getattr(self._local, "tracks", None)
        if stack is None:
            stack = []
            self._local.tracks = stack
        return stack

    def _active_track(self) -> ClockTrack | None:
        stack = self._track_stack()
        return stack[-1] if stack else None

    def now(self) -> float:
        track = self._active_track()
        if track is not None:
            return track.origin + track.offset
        with self._lock:
            return self._now

    def advance(self, amount: float) -> float:
        if amount < 0:
            raise SettingError(
                "a virtual clock cannot run backwards",
                what="advance", where=repr(self), value=amount)
        track = self._active_track()
        if track is not None:
            track.offset += amount
            return track.origin + track.offset
        with self._lock:
            self._now += amount
            return self._now

    def open_track(self, origin: float | None = None) -> ClockTrack:
        """Branch this thread's virtual time off at *origin* (default: now)."""
        track = ClockTrack(self.now() if origin is None else origin)
        self._track_stack().append(track)
        return track

    def close_track(self, track: ClockTrack) -> float:
        """End *track* on this thread; returns its virtual elapsed time.

        Tracks close strictly LIFO: *track* must be the innermost open
        track on this thread.
        """
        stack = self._track_stack()
        if not stack or stack[-1] is not track:
            thread = threading.current_thread().name
            raise ClockTrackError(
                f"thread {thread!r} closed {track!r}, which is not its "
                f"innermost open track ({len(stack)} open here)",
                thread=thread, track=track, open_tracks=len(stack),
            )
        stack.pop()
        return track.offset

    def __repr__(self) -> str:
        return f"VirtualClock(t={self.now():.2f})"

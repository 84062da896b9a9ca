"""Deterministic fault injection for the worker serving path.

The fault-tolerance layer (deadlines, retries, breakers, degraded mode) is
only as real as the failures it has been proven against — and a healthy
worker never misbehaves on demand.  This module makes it misbehave:
**fault rules** parsed from the :data:`FAULTS_ENV` environment variable (or
the ``repro serve --inject-faults`` flag, which just sets that variable for
the worker fleet) arm named **fault points** inside the worker process:

``load``
    before the shard archive is loaded — ``exit`` here simulates a corrupt
    shard file and produces a crash loop;
``connect``
    before the worker dials the supervisor's connect-back port — ``stall``
    here simulates a slow accept;
``before_reply``
    after a request is executed, before its reply frame is written —
    ``crash`` / ``stall`` / ``corrupt`` here are the mid-request failures
    the retry-and-restart path must absorb;
``write_frame``
    inside :func:`repro.serve.protocol.write_frame` via the protocol-layer
    hook — ``corrupt`` here garbles any outgoing frame (including the
    hello) at the wire level.

Rule grammar (semicolon-separated, whitespace-insensitive)::

    point=action(param=value,param=value,...)

    before_reply=crash(op=candidates,shard=1,after=2,times=1)
    before_reply=stall(seconds=30,op=candidates)
    load=exit(code=3,after=1,times=4)
    connect=stall(seconds=2)
    write_frame=corrupt(times=1)

Actions: ``crash`` (``os._exit``, default code 9), ``exit``
(``os._exit`` with ``code=``, default 1 — spelled differently from
``crash`` because a deliberate exit code and a simulated hard crash read
differently in a spec), ``stall`` (``time.sleep(seconds)``), ``corrupt``
(write garbage bytes instead of the frame).  Selectors: ``op=`` (only
requests of that operation), ``shard=`` (only that worker), ``after=N``
(skip the first N matching hits), ``times=M`` (fire at most M times,
default unlimited).

Everything is in-process and deterministic — no signals, no external chaos
agent — so the chaos tier can assert exact recovery behavior.  The module
is inert unless a spec is present: production code paths call
:meth:`FaultPlan.fire` only through the ``plan`` the worker parsed at
startup, which is ``None`` in normal operation.
"""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, List, Optional

__all__ = [
    "FAULTS_ENV",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
]

#: Environment variable carrying the fault spec into worker processes.
FAULTS_ENV = "REPRO_FAULTS"

#: Valid fault points (where a rule may arm itself).
POINTS = ("load", "connect", "before_reply", "write_frame")

#: Valid actions (what an armed rule does when it fires).
ACTIONS = ("crash", "exit", "stall", "corrupt")

logger = logging.getLogger(__name__)

_RULE_RE = re.compile(
    r"^\s*(?P<point>[a-z_]+)\s*=\s*(?P<action>[a-z]+)\s*"
    r"(?:\(\s*(?P<params>[^)]*)\s*\))?\s*$"
)


class FaultSpecError(ValueError):
    """A fault spec that cannot be parsed (fail at arm time, not fire time)."""


class FaultInjected(RuntimeError):
    """Raised after a ``corrupt`` fired: the real frame must not be sent."""


@dataclass
class FaultRule:
    """One armed fault: where it fires, what it does, and its selectors."""

    point: str
    action: str
    op: Optional[str] = None
    shard: Optional[int] = None
    after: int = 0
    times: Optional[int] = None
    seconds: float = 1.0
    code: int = 9
    hits: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def matches(self, point: str, op: Optional[str],
                shard: Optional[int]) -> bool:
        if self.point != point:
            return False
        if self.op is not None and op != self.op:
            return False
        if self.shard is not None and shard is not None \
                and shard != self.shard:
            return False
        return True

    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times


def _parse_rule(text: str) -> FaultRule:
    match = _RULE_RE.match(text)
    if match is None:
        raise FaultSpecError(
            f"malformed fault rule {text!r} (expected "
            "'point=action(param=value,...)')"
        )
    point = match.group("point")
    action = match.group("action")
    if point not in POINTS:
        raise FaultSpecError(
            f"unknown fault point {point!r} (expected one of {POINTS})")
    if action not in ACTIONS:
        raise FaultSpecError(
            f"unknown fault action {action!r} (expected one of {ACTIONS})")
    rule = FaultRule(point=point, action=action)
    if action == "exit":
        rule.code = 1
    params = match.group("params") or ""
    for pair in filter(None, (p.strip() for p in params.split(","))):
        key, separator, value = pair.partition("=")
        key = key.strip()
        value = value.strip()
        if not separator or not value:
            raise FaultSpecError(
                f"malformed fault parameter {pair!r} in rule {text!r}")
        try:
            if key == "op":
                rule.op = value
            elif key == "shard":
                rule.shard = int(value)
            elif key == "after":
                rule.after = int(value)
            elif key == "times":
                rule.times = int(value)
            elif key == "seconds":
                rule.seconds = float(value)
            elif key == "code":
                rule.code = int(value)
            else:
                raise FaultSpecError(
                    f"unknown fault parameter {key!r} in rule {text!r}")
        except ValueError as error:
            if isinstance(error, FaultSpecError):
                raise
            raise FaultSpecError(
                f"invalid value {value!r} for fault parameter {key!r}"
            ) from error
    if rule.after < 0 or (rule.times is not None and rule.times < 1) \
            or rule.seconds < 0:
        raise FaultSpecError(f"out-of-range fault parameter in rule {text!r}")
    return rule


class FaultPlan:
    """Every armed fault rule of one worker process, plus its fire state.

    A plan is bound to the worker's shard index (:meth:`bind`) so
    ``shard=`` selectors resolve locally — the spec itself is shared by the
    whole fleet through one environment variable.
    """

    def __init__(self, rules: List[FaultRule], spec: str = ""):
        self.rules = list(rules)
        self.spec = spec
        self.shard: Optional[int] = None

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        rules = [_parse_rule(part)
                 for part in filter(None, (p.strip()
                                           for p in spec.split(";")))]
        if not rules:
            raise FaultSpecError(f"fault spec {spec!r} contains no rules")
        return cls(rules, spec=spec)

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None
                 ) -> Optional["FaultPlan"]:
        """The armed plan from :data:`FAULTS_ENV`, or ``None`` (the normal,
        inert case).  A malformed spec raises — silently serving without
        the faults a chaos run asked for would fake a green result."""
        spec = (environ if environ is not None else os.environ).get(
            FAULTS_ENV, "").strip()
        if not spec:
            return None
        return cls.parse(spec)

    def bind(self, shard: int) -> "FaultPlan":
        """Fix the worker's shard index for ``shard=`` selectors."""
        self.shard = int(shard)
        return self

    def fire(self, point: str, op: Optional[str] = None,
             stream: Optional[BinaryIO] = None) -> None:
        """Run every matching armed rule's action at this fault point.

        ``crash``/``exit`` do not return; ``stall`` sleeps; ``corrupt``
        writes garbage to ``stream`` and raises :class:`FaultInjected` so
        the caller skips the real frame.
        """
        for rule in self.rules:
            if not rule.matches(point, op, self.shard):
                continue
            rule.hits += 1
            if rule.hits <= rule.after or rule.exhausted():
                continue
            rule.fired += 1
            self._execute(rule, point, op, stream)

    def _execute(self, rule: FaultRule, point: str, op: Optional[str],
                 stream: Optional[BinaryIO]) -> None:
        logger.warning("fault fired: %s=%s (op=%s shard=%s, firing %d)",
                       point, rule.action, op, self.shard, rule.fired)
        if rule.action in ("crash", "exit"):
            # os._exit, not sys.exit: a crash must not unwind politely
            # through finally blocks — that would close the socket cleanly
            # and understate the failure being simulated.
            os._exit(rule.code)
        if rule.action == "stall":
            time.sleep(rule.seconds)
            return
        if rule.action == "corrupt":
            if stream is not None:
                # A plausible-length garbage frame: bad magic followed by
                # noise, so the reader fails on framing, not on EOF.
                stream.write(b"XBAD" + os.urandom(44))
                stream.flush()
            raise FaultInjected(f"corrupt frame injected at {point}")


def install_protocol_hook(plan: FaultPlan) -> None:
    """Arm the protocol layer's write-side fault point with this plan.

    Worker-process only (the hook is module-global in
    :mod:`repro.serve.protocol`); the supervisor side never installs one.
    """
    from repro.serve import protocol

    def hook(stream: BinaryIO, header: Dict[str, object]) -> bool:
        op = header.get("op")
        try:
            plan.fire("write_frame", op=op if isinstance(op, str) else None,
                      stream=stream)
        except FaultInjected:
            return True  # garbage already written; suppress the real frame
        return False

    protocol.set_write_fault_hook(hook)

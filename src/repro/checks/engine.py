"""Rule engine for the static-analysis subsystem.

The engine is deliberately small: a :class:`Rule` is a named, severity-
tagged function over one *subject* (a connectivity design, an FSM
model, a Python source file, a generated VHDL file, or a structural
netlist); a :class:`Finding` pins a message to a location; a
:class:`CheckConfig` decides which rules run and at what severity; and
:func:`run_rules` dispatches every enabled rule over every subject of
its kind.

Analyzer families (:mod:`repro.checks.netlist_drc`,
:mod:`repro.checks.fsm`, :mod:`repro.checks.crypto_lint`,
:mod:`repro.checks.hdl_rules`, :mod:`repro.checks.sta`,
:mod:`repro.checks.equiv`, :mod:`repro.checks.obs`) register rules at
import time via
:func:`rule`; the registry is the single source of truth the CLI,
the docs table and the tests enumerate.
"""

from __future__ import annotations

import enum
import fnmatch
import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Tuple

from repro.checks import secrets as _secrets


class Severity(enum.IntEnum):
    """How bad a finding is; ordering matters (ERROR > WARNING > NOTE)."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; choose from "
                f"{', '.join(s.name.lower() for s in cls)}"
            )


#: Subject kinds a rule can analyze.  The runner feeds each rule every
#: subject whose kind matches the rule's ``requires``.
KIND_DESIGN = "design"      # repro.checks.netgraph.Design
KIND_NETLIST = "netlist"    # repro.fpga.netlist.Netlist (+ spec)
KIND_FSM = "fsm"            # repro.checks.fsm.FsmModel
KIND_SOURCE = "source"      # repro.checks.crypto_lint.SourceFile
KIND_VHDL = "vhdl"          # (filename, text) pair
KIND_STA = "sta"            # repro.checks.sta.StaSubject
KIND_EQUIV = "equiv"        # repro.checks.equiv.EquivSubject
KIND_OBS = "obs"            # repro.checks.obs.ObsSubject
KIND_FLOW = "flow"          # repro.checks.flow.FlowSubject
KIND_PROTO = "proto"        # repro.checks.proto.ProtoSubject


@dataclass(frozen=True)
class Location:
    """Where a finding lives.

    ``file`` is a path for source findings, or a pseudo-path such as
    ``netlist:paper_encrypt`` / ``fsm:core_async`` for model findings.
    ``obj`` names the offending net, state, port or symbol.
    """

    file: str = ""
    line: int = 0
    obj: str = ""

    def render(self) -> str:
        parts = [self.file or "<global>"]
        if self.line:
            parts.append(str(self.line))
        text = ":".join(parts)
        if self.obj:
            text += f" ({self.obj})"
        return text


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by one rule."""

    rule: str
    severity: Severity
    message: str
    location: Location = field(default_factory=Location)

    def fingerprint(self) -> str:
        """Stable identity for baseline suppression.

        Line numbers are deliberately excluded so unrelated edits to a
        file do not invalidate suppressions; the (rule, file, obj)
        triple plus the message keeps collisions unlikely.
        """
        blob = "|".join(
            (self.rule, self.location.file, self.location.obj,
             self.message)
        )
        return hashlib.sha1(blob.encode()).hexdigest()[:16]

    def render(self) -> str:
        return (f"{self.location.render()}: "
                f"{self.severity.name.lower()}: "
                f"[{self.rule}] {self.message}")


RuleFunc = Callable[[object, "CheckConfig"], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered check."""

    id: str
    severity: Severity
    requires: str          # one of the KIND_* constants
    doc: str
    func: RuleFunc

    @property
    def family(self) -> str:
        return self.id.split(".", 1)[0]


_REGISTRY: Dict[str, Rule] = {}


def rule(rule_id: str, severity: Severity, requires: str,
         doc: str) -> Callable[[RuleFunc], RuleFunc]:
    """Decorator registering a rule function in the global registry."""

    def deco(func: RuleFunc) -> RuleFunc:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _REGISTRY[rule_id] = Rule(rule_id, severity, requires, doc, func)
        return func

    return deco


def registry() -> Dict[str, Rule]:
    """All registered rules (importing the analyzer modules first)."""
    # Importing the families populates the registry as a side effect.
    from repro.checks import aio_rules, crypto_lint, equiv, fsm, \
        hdl_rules, netlist_drc, obs, proto, serve_rules, sta, \
        taint_rules  # noqa: F401
    return dict(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    rules = registry()
    if rule_id not in rules:
        raise KeyError(f"unknown rule {rule_id!r}")
    return rules[rule_id]


# ------------------------------------------------------------------ config
@dataclass
class CheckConfig:
    """Which rules run, and rule-family knobs.

    ``enable`` / ``disable`` are fnmatch patterns over rule ids
    (``drc.*``, ``ct.secret-*``); disable wins.  ``severity_overrides``
    remaps a rule's severity (e.g. demote a check to a warning while
    a refactor is in flight).
    """

    enable: Tuple[str, ...] = ("*",)
    disable: Tuple[str, ...] = ()
    severity_overrides: Dict[str, Severity] = field(default_factory=dict)
    #: Lookup tables the constant-time rules treat as the sanctioned
    #: table-lookup implementation (the paper's S-box ROMs and their
    #: software shadows).
    sanctioned_tables: Tuple[str, ...] = (
        "SBOX", "INV_SBOX", "RCON", "T0", "T1", "T2", "T3",
        "_ALOG", "_LOG", "_table",
    )
    #: Identifier patterns treated as key material by the taint rules
    #: (defaults shared with every pack via repro.checks.secrets).
    secret_name_patterns: Tuple[str, ...] = _secrets.SECRET_NAME_PATTERNS
    #: Names that look key-like but are control/protocol signals or
    #: boolean flags, not key material.
    secret_name_exceptions: Tuple[str, ...] = \
        _secrets.SECRET_NAME_EXCEPTIONS
    #: Attribute names the taint rules treat as *public* projections
    #: of an otherwise secret-carrying object: frame status/header
    #: fields and session identity.  Reading ``response.status`` off a
    #: frame that travelled next to key material reveals protocol
    #: state, not key bits, so it does not propagate taint.
    public_attributes: Tuple[str, ...] = (
        "status", "op", "mode", "request_id", "session_id",
        # Cipher geometry (FIPS-197 Nb/Nk/Nr): block/key dimensions
        # are spec constants, not key bits.
        "nb", "nk", "nr",
    )
    #: Class names whose *instances* carry key material even when the
    #: variable holding them is innocently named (``session``).  A
    #: parameter annotated with one of these, or a local assigned from
    #: its constructor, is tainted; public_attributes still launder.
    secret_carrier_types: Tuple[str, ...] = ("Session",)
    #: Interprocedural propagation bound: how many call-graph hops a
    #: taint seed may travel (and how deep the blocking-call closure
    #: goes) before the fixpoint stops.  Keeps the analysis
    #: predictable on pathological call chains.
    flow_max_depth: int = 8
    #: Function-name patterns whose *return value* is data-plane
    #: output rather than key material: ciphertext and recovered
    #: plaintext are derived from the key but are precisely what the
    #: system exists to hand out.  Calls matching these launder taint
    #: in the flow engine — otherwise every bench report and response
    #: frame downstream of an encrypt call lights up as a "leak".
    declassified_call_names: Tuple[str, ...] = (
        "*crypt*", "*gctr*",
    )
    #: Call shapes the ``aio.blocking-in-coroutine`` rule treats as
    #: blocking the event loop when invoked directly inside an
    #: ``async def``: dotted prefixes (``time.sleep``, ``socket.*``)
    #: and bare names of the synchronous crypto entry points that
    #: must go through ``run_in_executor``.
    blocking_call_prefixes: Tuple[str, ...] = (
        "time.sleep", "socket.", "subprocess.", "requests.",
    )
    blocking_call_names: Tuple[str, ...] = (
        "encrypt_blocks", "xcrypt_ctr", "keystream", "gctr",
        "ecb_encrypt", "ecb_decrypt", "cbc_encrypt", "cbc_decrypt",
        "ctr_xcrypt", "ctr_stream", "gcm_encrypt", "gcm_decrypt",
    )
    #: Function-name patterns the padding-oracle rule treats as
    #: padding validators: their inputs are decrypted plaintext,
    #: secret even though no parameter is named like key material.
    padding_function_patterns: Tuple[str, ...] = ("*unpad*",)
    #: Parameters of those validators that are public configuration
    #: (block geometry), not ciphertext-derived data.
    padding_public_params: Tuple[str, ...] = (
        "self", "cls", "block", "block_size", "blocksize",
    )
    #: File patterns the ``serve.*`` async-service rules apply to.
    #: The bounded-queue and timeout disciplines are serving-layer
    #: contracts, not repository-wide style, so the rules are scoped.
    #: The admin/scrape plane and the cluster modules (gateway,
    #: supervisor) are named explicitly (redundant with the package
    #: glob today): each must keep the timeout/backpressure
    #: discipline even if it ever moves out of the serve package.
    serve_path_patterns: Tuple[str, ...] = (
        "*repro/serve/*.py",
        "*repro/serve/admin.py",
        "*repro/serve/gateway.py",
        "*repro/serve/cluster.py",
    )

    def enabled(self, rule_id: str) -> bool:
        if any(fnmatch.fnmatch(rule_id, pat) for pat in self.disable):
            return False
        return any(fnmatch.fnmatch(rule_id, pat) for pat in self.enable)

    def effective_severity(self, base: Rule) -> Severity:
        for pattern, severity in self.severity_overrides.items():
            if fnmatch.fnmatch(base.id, pattern):
                return severity
        return base.severity


# ------------------------------------------------------------------ running
def run_rules(
    subjects: Dict[str, Sequence[object]],
    config: Optional[CheckConfig] = None,
    only: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run every enabled rule over every subject of its kind.

    ``subjects`` maps a KIND_* constant to the inputs of that kind.
    ``only`` optionally restricts to an explicit iterable of rule ids
    (used by tests to exercise one rule in isolation).
    """
    config = config or CheckConfig()
    wanted = set(only) if only is not None else None
    findings: List[Finding] = []
    for rule_obj in sorted(registry().values(), key=lambda r: r.id):
        if wanted is not None and rule_obj.id not in wanted:
            continue
        if wanted is None and not config.enabled(rule_obj.id):
            continue
        severity = config.effective_severity(rule_obj)
        for subject in subjects.get(rule_obj.requires, ()):
            for finding in rule_obj.func(subject, config):
                if finding.severity is not severity:
                    finding = replace(finding, severity=severity)
                findings.append(finding)
    findings.sort(key=lambda f: (f.location.file, f.location.line,
                                 f.rule, f.message))
    return findings


def max_severity(findings: Iterable[Finding]) -> Optional[Severity]:
    worst: Optional[Severity] = None
    for finding in findings:
        if worst is None or finding.severity > worst:
            worst = finding.severity
    return worst


def iter_families(rules: Dict[str, Rule]) -> Iterator[Tuple[str,
                                                            List[Rule]]]:
    """Rules grouped by family prefix, for docs/CLI listings."""
    families: Dict[str, List[Rule]] = {}
    for rule_obj in rules.values():
        families.setdefault(rule_obj.family, []).append(rule_obj)
    for family in sorted(families):
        yield family, sorted(families[family], key=lambda r: r.id)

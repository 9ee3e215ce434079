"""Scan configuration files: a line-oriented grammar of PLCs and tags.

`parse_scan_config` checks every line and reports the first bad one by
number; a plc line builds its `PlcEndpoint` there, so an address, slot or
buffer limit the endpoint rejects is a config error on that line, not a
failure at apply time.  `apply_scan_config` creates the PLCs and the
subscriptions on a `TagScanner`, expanding `elements=<n>` into one
subscription per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cip import CipType
from .client import DEFAULT_BUFFER_LIMIT, PlcEndpoint
from .encap import DEFAULT_PORT
from .plan import Direction
from .scanner import Subscription, TagScanner
from .tags import parse_tag


class ConfigError(ValueError):
    """Scan config line that does not follow the grammar."""


@dataclass
class PlcSpec:
    name: str
    endpoint: PlcEndpoint
    connected: bool


@dataclass
class TagSpec:
    plc: str
    tag: str
    period_ms: float
    direction: Direction
    elem_type: CipType | None
    elements: int
    coalesce: bool
    bool_array: bool


@dataclass
class ScanConfig:
    plcs: list[PlcSpec] = field(default_factory=list)
    tags: list[TagSpec] = field(default_factory=list)


def parse_scan_config(text: str) -> ScanConfig:
    """Parse the line-oriented scan config.

    plc <name> <host>[:<port>] slot=<n> [limit=<bytes>] [connected]
        (an IPv6 host in brackets: [<addr>] or [<addr>]:<port>)
    tag <plcname> <tagref> period=<ms> dir=<in|out> [type=<T>]
        [elements=<n>] [no-coalesce] [bool-array]
    """
    config = ScanConfig()
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        words = line.split()
        kind, args = words[0], words[1:]
        try:
            if kind == "plc":
                spec = _parse_plc_line(args)
                if spec.name in names:
                    raise ConfigError(f"plc {spec.name!r} defined twice")
                names.add(spec.name)
                config.plcs.append(spec)
            elif kind == "tag":
                spec = _parse_tag_line(args)
                if spec.plc not in names:
                    raise ConfigError(f"tag references undefined plc {spec.plc!r}")
                config.tags.append(spec)
            else:
                raise ConfigError(f"unknown directive {kind!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return config


def _parse_plc_line(args: list[str]) -> PlcSpec:
    if len(args) < 2:
        raise ConfigError("plc needs a name and a host")
    name = args[0]
    host, port = _parse_address(args[1])
    slot = None
    limit = DEFAULT_BUFFER_LIMIT
    connected = False
    for word in args[2:]:
        if word == "connected":
            connected = True
        elif word.startswith("slot="):
            slot = _int_option(word)
        elif word.startswith("limit="):
            limit = _int_option(word)
        else:
            raise ConfigError(f"unknown plc option {word!r}")
    if slot is None:
        raise ConfigError("plc line missing slot=<n>")
    try:
        endpoint = PlcEndpoint(host, port, slot, limit)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return PlcSpec(name, endpoint, connected)


def _parse_address(text: str) -> tuple[str, int]:
    """(host, port) of `host[:port]`, an IPv6 host in brackets."""
    host, port_text = text, None
    if text.startswith("["):
        host, bracket, rest = text[1:].partition("]")
        if not bracket or rest[:1] not in ("", ":"):
            raise ConfigError(f"bad host {text!r}")
        if rest:
            port_text = rest[1:]
    elif text.count(":") > 1:
        raise ConfigError(f"IPv6 host {text!r} needs brackets, as [addr]:port")
    elif ":" in text:
        host, _, port_text = text.partition(":")
    if port_text is None:
        return host, DEFAULT_PORT
    try:
        return host, int(port_text)
    except ValueError:
        raise ConfigError(f"bad port {port_text!r}") from None


def _parse_tag_line(args: list[str]) -> TagSpec:
    if len(args) < 2:
        raise ConfigError("tag needs a plc name and a tag reference")
    plc, tag = args[0], args[1]
    period_ms = None
    direction = None
    elem_type = None
    elements = 1
    coalesce = True
    bool_array = False
    for word in args[2:]:
        if word == "no-coalesce":
            coalesce = False
        elif word == "bool-array":
            bool_array = True
        elif word.startswith("period="):
            period_ms = _float_option(word)
        elif word.startswith("dir="):
            value = word.split("=", 1)[1]
            try:
                direction = Direction(value)
            except ValueError:
                raise ConfigError(f"dir must be in or out, not {value!r}") from None
        elif word.startswith("type="):
            value = word.split("=", 1)[1]
            try:
                elem_type = CipType[value.upper()]
            except KeyError:
                raise ConfigError(f"unknown type {value!r}") from None
        elif word.startswith("elements="):
            elements = _int_option(word)
            if elements < 1:
                raise ConfigError("elements must be at least 1")
        else:
            raise ConfigError(f"unknown tag option {word!r}")
    if period_ms is None or period_ms <= 0:
        raise ConfigError("tag line missing period=<ms>")
    if direction is None:
        raise ConfigError("tag line missing dir=<in|out>")
    try:
        parse_tag(tag)
    except Exception as exc:
        raise ConfigError(f"bad tag {tag!r}: {exc}") from None
    if bool_array and elem_type not in (None, CipType.BOOL):
        raise ConfigError("bool-array tags must be type BOOL")
    return TagSpec(plc, tag, period_ms, direction, elem_type, elements, coalesce, bool_array)


def _int_option(word: str) -> int:
    key, _, value = word.partition("=")
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} needs an integer, not {value!r}") from None


def _float_option(word: str) -> float:
    key, _, value = word.partition("=")
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} needs a number, not {value!r}") from None


def apply_scan_config(scanner: TagScanner, config: ScanConfig) -> list[Subscription]:
    """Create the PLCs and subscriptions a parsed config describes."""
    subs = []
    for plc in config.plcs:
        scanner.add_plc(plc.name, plc.endpoint, connected=plc.connected)
    for spec in config.tags:
        base = parse_tag(spec.tag, bool_array=spec.bool_array)
        period_s = spec.period_ms / 1000.0
        if spec.elements == 1:
            refs = [base]
        else:
            start = base.final_element if base.final_element is not None else 0
            refs = [base.with_final_element(start + i) for i in range(spec.elements)]
        for ref in refs:
            subs.append(scanner.add_tag(
                spec.plc, ref, period_s, spec.direction,
                elem_type=spec.elem_type, coalesce=spec.coalesce,
                bool_array=spec.bool_array,
            ))
    return subs

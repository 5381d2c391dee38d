"""Dataclass (pyschema) twin of ledger.idl."""

from dataclasses import dataclass
from typing import Annotated

from repro.pyschema import Fixed, i32, interface


@dataclass
class Coord:
    x: i32
    y: i32


@dataclass
class Rect:
    ul: Coord
    lr: Coord


@dataclass
class Stat:
    f00: i32; f01: i32; f02: i32; f03: i32; f04: i32
    f05: i32; f06: i32; f07: i32; f08: i32; f09: i32
    f10: i32; f11: i32; f12: i32; f13: i32; f14: i32
    f15: i32; f16: i32; f17: i32; f18: i32; f19: i32
    f20: i32; f21: i32; f22: i32; f23: i32; f24: i32
    f25: i32; f26: i32; f27: i32; f28: i32; f29: i32
    tag: Annotated[bytes, Fixed(16)]


@dataclass
class DirEnt:
    name: str
    st: Stat


@interface
class Ledger:
    def ping(self, x: i32) -> i32: ...
    def put_ints(self, a: list[i32]) -> None: ...
    def put_rects(self, a: list[Rect]) -> None: ...
    def put_dirents(self, a: list[DirEnt]) -> None: ...
    def get_ints(self, n: i32) -> list[i32]: ...
    def get_rects(self, n: i32) -> list[Rect]: ...
    def get_dirents(self, n: i32) -> list[DirEnt]: ...

"""Canonical Bitcoin-shaped chain data: headers, transactions, blocks.

Serialization is bit-exact with Bitcoin's wire layout (little-endian
integers, raw 32-byte hashes in internal order, CompactSize counts), so
hashes computed here match the reference values for real chain data.
Hashes are displayed in the customary reversed-hex convention.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

HEADER_SIZE = 80  # bytes
MAX_MONEY = 21_000_000 * 100_000_000  # satoshi
HASH_SPACE = 1 << 256

_UINT32_MAX = 0xFFFFFFFF


class SerializationError(ValueError):
    """Raised when bytes do not form a canonical chain object."""


class CompactBitsError(ValueError):
    """Raised for compact difficulty encodings that expand to no usable target."""


def sha256d(data: bytes) -> bytes:
    """Double SHA-256, the hash used for block and transaction ids."""
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


class Hash256(bytes):
    """A 32-byte double-SHA256 digest in internal (wire) byte order."""

    __slots__ = ()

    def __new__(cls, data: bytes) -> "Hash256":
        if len(data) != 32:
            raise ValueError(f"Hash256 needs exactly 32 bytes, got {len(data)}")
        return super().__new__(cls, data)

    @classmethod
    def from_rev_hex(cls, text: str) -> "Hash256":
        """Parse the human-facing reversed-hex form (as block explorers print)."""
        return cls(bytes.fromhex(text)[::-1])

    def rev_hex(self) -> str:
        return self[::-1].hex()

    def as_int(self) -> int:
        """The digest as the little-endian integer compared against targets."""
        return int.from_bytes(self, "little")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hash256({self.rev_hex()})"


ZERO_HASH = Hash256(b"\x00" * 32)


class NetworkKind(Enum):
    """Which validation policy and simulator defaults apply."""

    MAINNET = "mainnet"
    TESTNET = "testnet"
    REGTEST = "regtest"

    @classmethod
    def from_str(cls, text: str) -> "NetworkKind":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown network {text!r}") from None


# --- CompactSize varints -------------------------------------------------


def write_varint(n: int) -> bytes:
    if n < 0:
        raise SerializationError("varint must be non-negative")
    if n < 0xFD:
        return bytes([n])
    if n <= 0xFFFF:
        return b"\xfd" + struct.pack("<H", n)
    if n <= 0xFFFFFFFF:
        return b"\xfe" + struct.pack("<I", n)
    return b"\xff" + struct.pack("<Q", n)


class ByteReader:
    """Cursor over immutable bytes with bounds-checked reads."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SerializationError("unexpected end of data")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self.take(4))[0]

    def varint(self) -> int:
        first = self.take(1)[0]
        if first < 0xFD:
            return first
        if first == 0xFD:
            val = struct.unpack("<H", self.take(2))[0]
            floor = 0xFD
        elif first == 0xFE:
            val = struct.unpack("<I", self.take(4))[0]
            floor = 0x10000
        else:
            val = struct.unpack("<Q", self.take(8))[0]
            floor = 0x100000000
        if val < floor:
            raise SerializationError("non-canonical varint")
        return val

    def done(self) -> bool:
        return self.pos == len(self.data)


# --- Block header --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BlockHeader:
    """The 80-byte header: version, prev, merkle root, time, bits, nonce.

    Its hash is computed on first use and kept, so every tree that holds
    the header shares one digest."""

    version: int
    prev: Hash256
    merkle_root: Hash256
    time: int
    bits: int
    nonce: int
    _hash: Optional[Hash256] = field(default=None, init=False, compare=False, repr=False)

    def to_bytes(self) -> bytes:
        return (
            struct.pack("<i", self.version)
            + self.prev
            + self.merkle_root
            + struct.pack("<III", self.time & _UINT32_MAX, self.bits, self.nonce)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BlockHeader":
        if len(data) != HEADER_SIZE:
            raise SerializationError(f"header must be {HEADER_SIZE} bytes, got {len(data)}")
        return cls.read(ByteReader(data))

    @classmethod
    def read(cls, r: ByteReader) -> "BlockHeader":
        version = r.i32()
        prev = Hash256(r.take(32))
        merkle = Hash256(r.take(32))
        time, bits, nonce = struct.unpack("<III", r.take(12))
        return cls(version, prev, merkle, time, bits, nonce)

    def hash(self) -> Hash256:
        h = self._hash
        if h is None:
            h = Hash256(sha256d(self.to_bytes()))
            object.__setattr__(self, "_hash", h)
        return h


# --- Transactions --------------------------------------------------------


class OutPoint(NamedTuple):
    """Reference to a previous transaction output. A tuple, so hashing and
    comparing one runs at C speed."""

    txid: Hash256
    vout: int

    def is_null(self) -> bool:
        return self.txid == ZERO_HASH and self.vout == _UINT32_MAX

    @classmethod
    def null(cls) -> "OutPoint":
        return cls(ZERO_HASH, _UINT32_MAX)


@dataclass(frozen=True, slots=True)
class TxIn:
    outpoint: OutPoint
    script_sig: bytes = b""
    sequence: int = _UINT32_MAX


@dataclass(frozen=True, slots=True)
class TxOut:
    value: int
    script_pubkey: bytes


@dataclass(frozen=True, slots=True)
class Transaction:
    """A plain (pre-segwit layout) transaction; txid is the double-SHA256
    of the canonical serialization, computed on first use and kept with the
    serialization's length."""

    version: int
    inputs: tuple[TxIn, ...]
    outputs: tuple[TxOut, ...]
    lock_time: int = 0
    _txid: Optional[Hash256] = field(default=None, init=False, compare=False, repr=False)
    _size: int = field(default=0, init=False, compare=False, repr=False)

    def to_bytes(self) -> bytes:
        parts = [struct.pack("<i", self.version), write_varint(len(self.inputs))]
        for txin in self.inputs:
            parts.append(txin.outpoint.txid)
            parts.append(struct.pack("<I", txin.outpoint.vout))
            parts.append(write_varint(len(txin.script_sig)))
            parts.append(txin.script_sig)
            parts.append(struct.pack("<I", txin.sequence))
        parts.append(write_varint(len(self.outputs)))
        for txout in self.outputs:
            parts.append(struct.pack("<q", txout.value))
            parts.append(write_varint(len(txout.script_pubkey)))
            parts.append(txout.script_pubkey)
        parts.append(struct.pack("<I", self.lock_time))
        return b"".join(parts)

    @classmethod
    def read(cls, r: ByteReader) -> "Transaction":
        start = r.pos
        version = r.i32()
        n_in = r.varint()
        if n_in > 1_000_000:
            raise SerializationError("implausible input count")
        inputs = []
        for _ in range(n_in):
            txid = Hash256(r.take(32))
            vout = r.u32()
            script_sig = r.take(r.varint())
            sequence = r.u32()
            inputs.append(TxIn(OutPoint(txid, vout), script_sig, sequence))
        n_out = r.varint()
        if n_out > 1_000_000:
            raise SerializationError("implausible output count")
        outputs = []
        for _ in range(n_out):
            value = struct.unpack("<q", r.take(8))[0]
            script = r.take(r.varint())
            outputs.append(TxOut(value, script))
        lock_time = r.u32()
        tx = cls(version, tuple(inputs), tuple(outputs), lock_time)
        # Varints are canonical, so the bytes read are the serialization.
        raw = r.data[start : r.pos]
        object.__setattr__(tx, "_txid", Hash256(sha256d(raw)))
        object.__setattr__(tx, "_size", len(raw))
        return tx

    @classmethod
    def from_bytes(cls, data: bytes) -> "Transaction":
        r = ByteReader(data)
        tx = cls.read(r)
        if not r.done():
            raise SerializationError("trailing bytes after transaction")
        return tx

    def txid(self) -> Hash256:
        h = self._txid
        if h is None:
            raw = self.to_bytes()
            h = Hash256(sha256d(raw))
            object.__setattr__(self, "_txid", h)
            object.__setattr__(self, "_size", len(raw))
        return h

    def size(self) -> int:
        """Length of the serialization, kept from the one `txid` hashes."""
        if self._txid is None:
            self.txid()
        return self._size

    def is_coinbase(self) -> bool:
        return len(self.inputs) == 1 and self.inputs[0].outpoint.is_null()


# --- Blocks and merkle roots ----------------------------------------------


def merkle_root(txids: list[Hash256]) -> Hash256:
    """Bitcoin's merkle rule: pairwise double-SHA256, duplicating the last
    element of odd-length levels. A single txid is its own root."""
    if not txids:
        raise ValueError("merkle root of zero transactions is undefined")
    level: list[bytes] = list(txids)
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [sha256d(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return Hash256(level[0])


@dataclass(frozen=True, slots=True)
class Block:
    header: BlockHeader
    transactions: tuple[Transaction, ...]

    def to_bytes(self) -> bytes:
        parts = [self.header.to_bytes(), write_varint(len(self.transactions))]
        parts.extend(tx.to_bytes() for tx in self.transactions)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Block":
        r = ByteReader(data)
        header = BlockHeader.read(r)
        n_tx = r.varint()
        if n_tx > 1_000_000:
            raise SerializationError("implausible transaction count")
        txs = tuple(Transaction.read(r) for _ in range(n_tx))
        if not r.done():
            raise SerializationError("trailing bytes after block")
        return cls(header, txs)

    def txids(self) -> list[Hash256]:
        return [tx.txid() for tx in self.transactions]

    def computed_merkle_root(self) -> Hash256:
        return merkle_root(self.txids())

    def size(self) -> int:
        """Length of the serialization, from each transaction's kept length."""
        return (
            HEADER_SIZE
            + len(write_varint(len(self.transactions)))
            + sum(tx.size() for tx in self.transactions)
        )


# --- Compact difficulty targets and work ----------------------------------


def bits_to_target(bits: int) -> int:
    """Expand the compact 'bits' encoding to the full 256-bit target.

    Raises CompactBitsError for encodings that are negative, overflow
    256 bits, or expand to zero; such headers can never validate.
    """
    if not 0 <= bits <= _UINT32_MAX:
        raise CompactBitsError(f"bits out of range: {bits:#x}")
    exponent = bits >> 24
    mantissa = bits & 0x007FFFFF
    if bits & 0x00800000:
        raise CompactBitsError("negative compact target")
    if exponent <= 3:
        target = mantissa >> (8 * (3 - exponent))
    else:
        target = mantissa << (8 * (exponent - 3))
    if target == 0:
        raise CompactBitsError("zero target")
    if target >= HASH_SPACE:
        raise CompactBitsError("target overflows 256 bits")
    return target


def target_to_bits(target: int) -> int:
    """Compact-encode a target, rounding down like the reference client."""
    if target <= 0:
        raise CompactBitsError("target must be positive")
    size = (target.bit_length() + 7) // 8
    if size <= 3:
        mantissa = target << (8 * (3 - size))
    else:
        mantissa = target >> (8 * (size - 3))
    if mantissa & 0x00800000:
        mantissa >>= 8
        size += 1
    return (size << 24) | mantissa


def work_from_target(target: int) -> int:
    """Expected number of hash attempts a target represents."""
    if target <= 0:
        raise CompactBitsError("target must be positive")
    return HASH_SPACE // (target + 1)


def work_from_bits(bits: int) -> int:
    return work_from_target(bits_to_target(bits))


# --- Address extraction ----------------------------------------------------

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
# Two base58 digits per entry: entry 58 * hi + lo spells digit hi, then lo.
_B58_PAIRS = [hi + lo for hi in _B58_ALPHABET for lo in _B58_ALPHABET]


def _base58check(payload: bytes) -> str:
    data = payload + sha256d(payload)[:4]
    n = int.from_bytes(data, "big")
    out = []
    while n:
        n, rem = divmod(n, 58 * 58)
        out.append(_B58_PAIRS[rem])
    # The top pair may spell a leading zero digit, which the number lacks;
    # each leading zero byte is spelled as one zero digit instead.
    digits = "".join(reversed(out)).lstrip("1")
    pad = len(data) - len(data.lstrip(b"\x00"))
    return "1" * pad + digits


_BECH32_CHARSET = "qpzry9x8gf2tvdw0s3jn54khce6mua7l"


def _bech32_polymod(values: list[int]) -> int:
    gen = (0x3B6A57B2, 0x26508E6D, 0x1EA119FA, 0x3D4233DD, 0x2A1462B3)
    chk = 1
    for v in values:
        top = chk >> 25
        chk = (chk & 0x1FFFFFF) << 5 ^ v
        for i in range(5):
            chk ^= gen[i] if ((top >> i) & 1) else 0
    return chk


def _bech32_hrp_expand(hrp: str) -> list[int]:
    return [ord(c) >> 5 for c in hrp] + [0] + [ord(c) & 31 for c in hrp]


def _bech32_encode(hrp: str, data: list[int]) -> str:
    values = _bech32_hrp_expand(hrp) + data
    polymod = _bech32_polymod(values + [0, 0, 0, 0, 0, 0]) ^ 1
    checksum = [(polymod >> 5 * (5 - i)) & 31 for i in range(6)]
    return hrp + "1" + "".join(_BECH32_CHARSET[d] for d in data + checksum)


def _convert_8_to_5(data: bytes) -> list[int]:
    acc = 0
    bits = 0
    out = []
    for byte in data:
        acc = (acc << 8) | byte
        bits += 8
        while bits >= 5:
            bits -= 5
            out.append((acc >> bits) & 31)
    if bits:
        out.append((acc << (5 - bits)) & 31)
    return out


_P2PKH_VERSION = {
    NetworkKind.MAINNET: 0x00,
    NetworkKind.TESTNET: 0x6F,
    NetworkKind.REGTEST: 0x6F,
}
_P2SH_VERSION = {
    NetworkKind.MAINNET: 0x05,
    NetworkKind.TESTNET: 0xC4,
    NetworkKind.REGTEST: 0xC4,
}
_BECH32_HRP = {
    NetworkKind.MAINNET: "bc",
    NetworkKind.TESTNET: "tb",
    NetworkKind.REGTEST: "bcrt",
}


def script_address(script: bytes, network: NetworkKind) -> str:
    """Derive the indexing address for a locking script.

    Recognizes the P2PKH, P2SH, and P2WPKH templates; anything else is
    indexed under an opaque address formed from the script's double-SHA256
    so every output stays retrievable by address.
    """
    if (
        len(script) == 25
        and script[0] == 0x76
        and script[1] == 0xA9
        and script[2] == 0x14
        and script[23] == 0x88
        and script[24] == 0xAC
    ):
        return _base58check(bytes([_P2PKH_VERSION[network]]) + script[3:23])
    if len(script) == 23 and script[0] == 0xA9 and script[1] == 0x14 and script[22] == 0x87:
        return _base58check(bytes([_P2SH_VERSION[network]]) + script[2:22])
    if len(script) == 22 and script[0] == 0x00 and script[1] == 0x14:
        return _bech32_encode(_BECH32_HRP[network], [0] + _convert_8_to_5(script[2:22]))
    return "script-" + sha256d(script).hex()


def p2pkh_script(pubkey_hash: bytes) -> bytes:
    """Build the standard pay-to-pubkey-hash locking script."""
    if len(pubkey_hash) != 20:
        raise ValueError("pubkey hash must be 20 bytes")
    return b"\x76\xa9\x14" + pubkey_hash + b"\x88\xac"

"""Decoupled-weight-decay Adam, the one-cycle learning-rate schedule, and the
binary checkpoint format.

Checkpoint layout (all little-endian):
  magic    8 bytes  b"P4DMODEL"
  version  uint32   currently 1
  cfg_len  uint32   length of a UTF-8 config text block (may be 0)
  cfg      cfg_len bytes
  count    uint32   number of named parameters
  then per parameter:
  name_len uint16, name (UTF-8), ndim uint8, dims uint32[ndim],
  payload  float64[prod(dims)]
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, FormatError, ParameterError, check_fields, domain

CHECKPOINT_MAGIC = b"P4DMODEL"
CHECKPOINT_VERSION = 1
STEP_CHUNK = 2**15  # elements per slice of an AdamW step; its scratch is this size


@dataclass
class AdamW:
    """Adam with decoupled weight decay.

    Each step first shrinks the parameter by lr * weight_decay and then
    applies the bias-corrected Adam update from the accumulated moments.

    On construction every parameter's values and gradient are copied into
    two flat float64 buffers, and each Tensor's .values / .grad are rebound
    to views of them, so a step is one vectorized update in place. Writing
    into a parameter (p.values[...] = x) is seen by the optimizer; rebinding
    it (p.values = x) is a contract violation that the next step reports.
    A step walks the buffers in slices of STEP_CHUNK elements, so its
    scratch stays chunk-sized whatever the parameter count.
    """

    params: dict[str, Tensor]
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    step_count: int = 0
    m: np.ndarray = field(init=False)  # flat first moment
    v: np.ndarray = field(init=False)  # flat second moment

    def __post_init__(self):
        seen: dict[int, str] = {}
        for name, p in self.params.items():
            if not p.requires_grad:
                raise ContractError(f"parameter {name!r} does not require grad")
            if id(p) in seen:
                raise ContractError(f"parameter {name!r} is the same tensor as {seen[id(p)]!r}")
            seen[id(p)] = name
        total = sum(p.values.size for p in self.params.values())
        self._values = np.empty(total)
        self._grads = np.empty(total)
        offset = 0
        for p in self.params.values():
            end = offset + p.values.size
            values = self._values[offset:end].reshape(p.values.shape)
            grad = self._grads[offset:end].reshape(p.values.shape)
            values[...] = p.values
            grad[...] = p.grad
            p.values, p.grad = values, grad
            offset = end
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        chunk = min(total, STEP_CHUNK)
        self._scratch = (np.empty(chunk), np.empty(chunk))

    def step(self, lr: float | None = None) -> None:
        if lr is None:
            lr = self.lr
        for name, p in self.params.items():
            if p.values.base is not self._values or p.grad.base is not self._grads:
                raise ContractError(
                    f"parameter {name!r} no longer views the optimizer's buffers "
                    "(assign into .values[...] instead of rebinding it)"
                )
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        decay = 1.0 - lr * self.weight_decay
        for lo in range(0, self._values.size, STEP_CHUNK):
            hi = lo + STEP_CHUNK
            values, g = self._values[lo:hi], self._grads[lo:hi]
            m, v = self.m[lo:hi], self.v[lo:hi]
            a, b = (buf[: values.size] for buf in self._scratch)
            # The per-element operations and their order are those of
            #   values -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            # after the moment updates, written with out= to avoid temporaries.
            if self.weight_decay:
                values *= decay
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            v += np.multiply(a, g, out=a)
            np.sqrt(np.divide(v, bc2, out=a), out=a)
            a += self.eps
            np.multiply(np.divide(m, bc1, out=b), lr, out=b)
            values -= np.divide(b, a, out=b)

    def zero_grad(self) -> None:
        self._grads.fill(0.0)


@dataclass(frozen=True)
class OneCycleSchedule:
    """Cosine warmup to max_lr, then cosine anneal to a much lower floor."""

    max_lr: float = field(metadata=domain(0, above=True))
    steps: int = field(metadata=domain(1))
    warmup_frac: float = field(default=0.3, metadata=domain(0, 1))
    div_start: float = field(default=25.0, metadata=domain(1))
    div_end: float = field(default=1e4, metadata=domain(1))

    def __post_init__(self):
        check_fields(self)

    @property
    def warmup_steps(self) -> int:
        return int(round(self.warmup_frac * (self.steps - 1)))

    def lr(self, step: int) -> float:
        if not 0 <= step < self.steps:
            raise ParameterError(
                f"step {step} outside schedule of {self.steps} steps"
            )
        warm = self.warmup_steps
        if step <= warm:
            lo, hi = self.max_lr / self.div_start, self.max_lr
            t = 1.0 if warm == 0 else step / warm
            # cosine ramp lo -> hi
            return hi + (lo - hi) * (1.0 + np.cos(np.pi * t)) / 2.0
        lo, hi = self.max_lr / self.div_end, self.max_lr
        span = self.steps - 1 - warm
        t = 1.0 if span == 0 else (step - warm) / span
        return lo + (hi - lo) * (1.0 + np.cos(np.pi * t)) / 2.0


def save_checkpoint(path: str, params: dict[str, Tensor | np.ndarray], config_text: str = "") -> None:
    cfg = config_text.encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(cfg)))
        f.write(cfg)
        f.write(struct.pack("<I", len(params)))
        for name, p in params.items():
            values = p.values if isinstance(p, Tensor) else np.asarray(p, dtype=np.float64)
            name_b = name.encode("utf-8")
            if len(name_b) >= 2**16:
                raise ParameterError(f"parameter name too long: {name!r}")
            f.write(struct.pack("<H", len(name_b)))
            f.write(name_b)
            f.write(struct.pack("<B", values.ndim))
            for d in values.shape:
                f.write(struct.pack("<I", d))
            f.write(values.astype("<f8").tobytes())


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], str]:
    """Returns (name -> float64 array, config text)."""
    with open(path, "rb") as f:
        blob = f.read()

    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise FormatError(f"checkpoint {path}: truncated reading {what}", pos)
        chunk = blob[pos : pos + n]
        pos += n
        return chunk

    def text(length_format: str, what: str) -> str:  # UTF-8 after its packed length
        (n,) = struct.unpack(length_format, take(struct.calcsize(length_format), f"{what} length"))
        chunk = take(n, what)
        try:
            return chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"checkpoint {path}: {what} not UTF-8", pos - n + exc.start) from exc

    if take(8, "magic") != CHECKPOINT_MAGIC:
        raise FormatError(f"{path} is not a checkpoint file", byte_offset=0)
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint {path}: unsupported version {version}", byte_offset=8)
    config_text = text("<I", "config")
    (count,) = struct.unpack("<I", take(4, "parameter count"))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = text("<H", "name")
        (ndim,) = struct.unpack("<B", take(1, "ndim"))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "dims")) if ndim else ()
        n_values = int(np.prod(dims)) if dims else 1
        payload = take(8 * n_values, f"payload of {name!r}")
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    if pos != len(blob):
        raise FormatError(f"checkpoint {path}: trailing bytes after the parameters", pos)
    return params, config_text

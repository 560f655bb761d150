"""Rough boundary graphs: 2pi-periodic profiles gamma with -1 <= gamma <= 0.

The numerical pipeline is restricted to Lipschitz graph boundaries given by a
truncated Fourier series.  Non-graph rough layers (porous boundaries etc.)
are outside the numerical scope and are rejected up front.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import isfinite

import numpy as np


class InputError(ValueError):
    """An input the numerics cannot represent; the CLI exits 2 on it."""


class AliasingError(InputError):
    """The boundary has Fourier modes a grid is too coarse to represent."""


class SolverError(RuntimeError):
    """A solve that failed or missed its residual bound; the CLI exits 3 on it."""


def json_object(data, keys, where: str) -> dict:
    """data if it is a JSON object that holds every key in keys."""
    if not isinstance(data, dict):
        raise InputError(f"{where} must be a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise InputError(f"{where} lacks {', '.join(missing)}")
    return data


def json_value(data, key, where: str, kind, valid, need: str):
    """data[key] if it is a `kind` that passes `valid`.  A bool never
    passes, nor does an int beyond float range."""
    value = data[key]
    try:
        ok = (not isinstance(value, bool) and isinstance(value, kind)
              and (type(value) is not int or isfinite(value)) and valid(value))
    except OverflowError:  # an int beyond float range
        ok = False
    if not ok:
        raise InputError(f"{where}: {key} = {value!r} must be {need}")
    return value


@dataclass(frozen=True)
class BoundaryGeometry:
    """2pi-periodic boundary graph y = gamma(x) stored as Fourier modes.

    `coeffs[k]` for k >= 0 holds c_k with gamma(x) = c_0 + 2 Re sum_{k>0} c_k e^{ikx};
    c_0 must be real.  The thickness constraint -1 <= gamma <= 0 is enforced at
    construction on a fine sample grid.  Only the nonzero modes are kept, in
    ascending k, so one wall is one geometry however its modes were spelled:
    `==`, `digest()` and `to_json_dict()` describe the wall.
    """

    coeffs: tuple = field(default_factory=tuple)  # ((k, re, im), ...) with k >= 0

    def __post_init__(self):
        seen = set()
        for k, re, im in self.coeffs:
            if k < 0 or k in seen:
                raise InputError("modes must have unique wavenumbers k >= 0")
            seen.add(k)
            if k == 0 and im != 0.0:
                raise InputError("mean mode must be real")
        # + 0.0 turns -0.0 into 0.0 and an int into a float, so that equal
        # walls also serialize, and hash, alike
        object.__setattr__(self, "coeffs", tuple(sorted(
            (k, re + 0.0, im + 0.0) for k, re, im in self.coeffs if re or im)))
        lo, hi = self.range()
        if lo < -1.0 - 1e-12 or hi > 1e-12:
            raise InputError(f"gamma range [{lo:.3g}, {hi:.3g}] violates -1 <= gamma <= 0")

    # -- constructors --------------------------------------------------------

    @classmethod
    def flat(cls, depth: float = 0.0) -> "BoundaryGeometry":
        """gamma == -depth."""
        return cls(((0, -float(depth), 0.0),))

    @classmethod
    def from_fourier(cls, modes: dict) -> "BoundaryGeometry":
        """From {k: complex} with k >= 0."""
        items = tuple(
            (int(k), float(np.real(c)), float(np.imag(c))) for k, c in sorted(modes.items())
        )
        return cls(items)

    @classmethod
    def from_samples(cls, samples) -> "BoundaryGeometry":
        """Fit Fourier modes to equispaced samples over one period.

        For an even count n the Nyquist bin stands for both k = +-n/2, and
        gamma adds c_k and its conjugate, so c_{n/2} is half of it.
        """
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        spec = np.fft.rfft(samples) / n
        if n % 2 == 0:
            spec[n // 2] *= 0.5
        modes = {}
        if abs(spec[0]) > 1e-14:
            modes[0] = complex(spec[0].real, 0.0)
        for k in range(1, n // 2 + 1):
            if abs(spec[k]) > 1e-14:
                modes[k] = complex(spec[k])
        return cls.from_fourier(modes)

    @classmethod
    def from_json_dict(cls, data: dict) -> "BoundaryGeometry":
        """From {"fourier": [{"k", "re", "im"?}, ...]} or {"samples": [...]}.

        Raises InputError unless exactly one of the two keys is present, and
        fourier is a list of objects, each with an int k that no other entry
        repeats and finite numbers re (and im), or samples is a non-empty list
        of finite numbers.
        """
        def number(entry, key, where: str) -> float:
            return float(json_value(entry, key, where, (int, float), isfinite, "a finite number"))

        json_object(data, (), "geometry")
        if ("fourier" in data) == ("samples" in data):
            raise InputError("geometry JSON needs exactly one of 'fourier' and 'samples'")
        if "fourier" in data:
            modes = {}
            for t in json_value(data, "fourier", "geometry", list, lambda v: True, "a list"):
                json_object(t, ("k", "re"), "geometry mode")
                # a bool or 1.7 would read as another k
                k = json_value(t, "k", "geometry mode", int, lambda v: v not in modes,
                               "an int that no other mode repeats")
                modes[k] = complex(number(t, "re", "geometry mode"),
                                   number(t, "im", "geometry mode") if "im" in t else 0.0)
            return cls.from_fourier(modes)
        samples = json_value(data, "samples", "geometry", list, bool, "a non-empty list")
        return cls.from_samples([number(samples, i, "geometry samples")
                                 for i in range(len(samples))])

    # -- evaluation -----------------------------------------------------------

    def _eval(self, x, order: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, re, im in self.coeffs:
            c = complex(re, im)
            if k == 0:
                if order == 0:
                    out = out + re
                continue
            out = out + 2.0 * ((1j * k) ** order * c * np.exp(1j * k * x)).real
        return out

    def gamma(self, x) -> np.ndarray:
        return self._eval(x, 0)

    def dgamma(self, x) -> np.ndarray:
        return self._eval(x, 1)

    def d2gamma(self, x) -> np.ndarray:
        return self._eval(x, 2)

    def range(self) -> tuple[float, float]:
        vals = self.gamma(np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
        return float(vals.min()), float(vals.max())

    @property
    def max_mode(self) -> int:
        return max((k for k, re, im in self.coeffs), default=0)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"fourier": [{"k": k, "re": re, "im": im} for k, re, im in self.coeffs]}

    def digest(self) -> str:
        return json_digest(self.to_json_dict())


def json_digest(data) -> str:
    """The first 16 hex digits of the SHA-256 of data as sorted-key JSON."""
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]

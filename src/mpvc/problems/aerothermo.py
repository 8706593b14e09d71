"""Re-entry heat-load minimization transcribed to an MPVC.

States (v, gamma, h, Q_T): velocity [km/s], flight-path angle [rad],
altitude [km], accumulated heat load [J/cm^2].  Controls (C_L, T, Qc):
lift coefficient, thrust [scaled, 1 unit = 1e6 N] and active-cooling heat
rate [W/cm^2].  Dynamics at the stagnation point:

    v'     = (T - D(v, h; C_L)) / m - g(h) sin(gamma)
    gamma' = L(v, h; C_L) / (m v) + cos(gamma) (v / r(h) - g(h) / v)
    h'     = v sin(gamma)
    Q_T'   = qheat(h, v) - Qc,   qheat = K_e sqrt(rho(h) / R_n) v^3

with an exponential atmosphere and inverse-square gravity.  Active cooling
may only run while the heat rate exceeds the radiative limit, which is the
vanishing constraint: per node, H = Qc >= 0 and

    G * H = (qrad_max - qheat(h, v)) * Qc <= 0.

Implicit Euler on N intervals with free final time: the decision vector is
[states at nodes 1..N | controls at nodes 0..N | tau] of length
4N + 3(N+1) + 1, where tau is the final time divided by ``time_ref_s`` and
the step is delta = tau * time_ref_s / N.  Node 0 carries the fixed
initial state; its control enters only bounds and the node-0 vanishing
pair.  The objective is Q_T at the final node.

Internally everything is scaled to (km, s, 10^3 kg); ``meta["unpack"]``
re-dimensionalizes a decision vector into labelled trajectories.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import ParameterError
from ..model import MpvcProblem

_FIXTURE = Path(__file__).parent / "fixtures" / "aerothermo.json"


def default_constants() -> dict:
    raw = json.loads(_FIXTURE.read_text())
    raw.pop("comment", None)
    return raw


class _Physics:
    """Precomputed scaled constants and the dynamics with Jacobians."""

    def __init__(self, consts: dict):
        self.c = consts
        self.hscale = consts["scale_height_m"] / 1000.0          # km
        self.rho0 = consts["rho0_kg_m3"]
        self.g0 = consts["g0_m_s2"] / 1000.0                     # km/s^2
        self.RE = consts["earth_radius_km"]
        self.S = consts["wing_area_m2"]
        self.cd0 = consts["cd0"]
        self.kind = consts["induced_drag_k"]
        self.mass = consts["mass_kg"] / 1000.0                   # 10^3 kg
        # Heat rate in W/cm^2 for v in km/s: K_e sqrt(rho/R_n) (1e3 v)^3 / 1e4.
        self.heat_coeff = consts["K_e"] * 1e5 / math.sqrt(consts["nose_radius_m"])
        self.qrad_max = consts["q_rad_max_w_cm2"]

    def rho(self, h: float) -> float:
        # exponent clamped so stray iterates far outside the flight
        # envelope cannot overflow; the clamp is inactive for |h| < 350 km
        return self.rho0 * math.exp(min(max(-h / self.hscale, -50.0), 50.0))

    def grav(self, h: float) -> float:
        return self.g0 * (self.RE / (self.RE + h)) ** 2

    def qheat(self, h: float, v: float) -> float:
        return self.heat_coeff * math.sqrt(self.rho(h)) * v**3

    def dyn(self, s: np.ndarray, u: np.ndarray):
        """F(state, control) with dF/dstate (4x4) and dF/dcontrol (4x3)."""
        v, gam, h, _ = s
        cl, thr, qc = u
        rho = self.rho(h)
        g = self.grav(h)
        dg = -2.0 * g / (self.RE + h)
        r = self.RE + h
        qd = 0.5 * rho * self.S                 # force units per (km/s)^2
        cd = self.cd0 + self.kind * cl * cl
        D = qd * v * v * cd
        L = qd * v * v * cl
        sin_g, cos_g = math.sin(gam), math.cos(gam)
        qh = self.heat_coeff * math.sqrt(rho) * v**3

        F = np.array(
            [
                (thr - D) / self.mass - g * sin_g,
                L / (self.mass * v) + cos_g * (v / r - g / v),
                v * sin_g,
                qh - qc,
            ]
        )
        dFx = np.zeros((4, 4))
        dFu = np.zeros((4, 3))
        # v' row
        dFx[0, 0] = -2.0 * qd * v * cd / self.mass
        dFx[0, 1] = -g * cos_g
        dFx[0, 2] = (D / self.hscale) / self.mass - dg * sin_g
        dFu[0, 0] = -qd * v * v * 2.0 * self.kind * cl / self.mass
        dFu[0, 1] = 1.0 / self.mass
        # gamma' row
        dFx[1, 0] = qd * cl / self.mass + cos_g * (1.0 / r + g / (v * v))
        dFx[1, 1] = -sin_g * (v / r - g / v)
        dFx[1, 2] = -(L / self.hscale) / (self.mass * v) + cos_g * (-v / (r * r) - dg / v)
        dFu[1, 0] = qd * v / self.mass
        # h' row
        dFx[2, 0] = sin_g
        dFx[2, 1] = v * cos_g
        # Q_T' row
        dFx[3, 0] = 3.0 * qh / v
        dFx[3, 2] = -qh / (2.0 * self.hscale)
        dFu[3, 2] = -1.0
        return F, dFx, dFu


def aerothermo(N: int = 30, constants: Optional[dict] = None) -> MpvcProblem:
    """Transcribed re-entry problem on ``N`` implicit-Euler intervals.

    ``constants`` overrides entries of the JSON fixture defaults; a key the
    fixture lacks, or a value that ``float()`` rejects, is a ParameterError.
    """
    if N < 2:
        raise ParameterError(f"aerothermo needs N >= 2 intervals, got {N}")
    consts = default_constants()
    for key, value in (constants or {}).items():
        if key not in consts:
            raise ParameterError(f"unknown aerothermo constant {key!r}")
        try:
            consts[key] = float(value)
        except (TypeError, ValueError):
            raise ParameterError(f"aerothermo constant {key!r} is not a number: {value!r}") from None
    phys = _Physics(consts)

    n_states = 4 * N
    n_ctrl = 3 * (N + 1)
    n = n_states + n_ctrl + 1
    tau_idx = n_states + n_ctrl
    tref = consts["time_ref_s"]
    s0 = np.array(
        [consts["v0_km_s"], consts["gamma0_rad"], consts["h0_km"], consts["qt0_j_cm2"]]
    )
    thrust_max = consts["thrust_max_n"] / 1e6
    tau_lo = consts["tau_min_s"] / tref
    tau_hi = consts["tau_max_s"] / tref

    def state(x, i):
        # node i in 1..N
        off = 4 * (i - 1)
        return x[off : off + 4]

    def ctrl(x, i):
        off = n_states + 3 * i
        return x[off : off + 3]

    def node_state(x, i):
        return s0 if i == 0 else state(x, i)

    grad_obj = np.zeros(n)
    grad_obj[4 * (N - 1) + 3] = 1.0

    def f(x):
        return float(x[4 * (N - 1) + 3]), grad_obj

    # --- inequality block (affine: sign * x[cols] - offset) --------------
    # per node: C_L box, thrust box, Qc upper bound; then the tau box and
    # the final altitude cap; per state node: v >= v_min and h >= 0
    m = 5 * (N + 1) + 3 + 2 * N
    ctrl0 = n_states + 3 * np.arange(N + 1)
    node0 = 4 * np.arange(N)
    g_cols = np.concatenate([
        np.column_stack([ctrl0, ctrl0, ctrl0 + 1, ctrl0 + 1, ctrl0 + 2]).ravel(),
        [tau_idx, tau_idx, 4 * (N - 1) + 2],
        np.column_stack([node0, node0 + 2]).ravel(),
    ])
    g_sign = np.concatenate([
        np.tile([1.0, -1.0, 1.0, -1.0, 1.0], N + 1), [1.0, -1.0, 1.0], np.full(2 * N, -1.0)
    ])
    g_offset = np.concatenate([
        np.tile([consts["cl_max"], -consts["cl_min"], thrust_max, 0.0, consts["qc_max_w_cm2"]],
                N + 1),
        [tau_hi, -tau_lo, consts["h_final_max_km"]],
        np.tile([-consts["v_min_km_s"], 0.0], N),
    ])
    Jg = np.zeros((m, n))
    Jg[np.arange(m), g_cols] = g_sign

    def g(x):
        return g_sign * x[g_cols] - g_offset, Jg

    # --- defect equalities ------------------------------------------------
    def h(x):
        tau = x[tau_idx]
        delta = tau * tref / N
        vals = np.empty(4 * N)
        jac = np.zeros((4 * N, n))
        for i in range(N):
            sp = state(x, i + 1)
            up = ctrl(x, i + 1)
            F, dFx, dFu = phys.dyn(sp, up)
            r = 4 * i
            vals[r : r + 4] = sp - node_state(x, i) - delta * F
            jac[r : r + 4, 4 * i : 4 * i + 4] = np.eye(4) - delta * dFx
            if i >= 1:
                jac[r : r + 4, 4 * (i - 1) : 4 * (i - 1) + 4] -= np.eye(4)
            coff = n_states + 3 * (i + 1)
            jac[r : r + 4, coff : coff + 3] = -delta * dFu
            jac[r : r + 4, tau_idx] = -(tref / N) * F
        return vals, jac

    # --- vanishing pairs ---------------------------------------------------
    l = N + 1

    H_cols = ctrl0 + 2                      # Qc at every node
    JH = np.zeros((l, n))
    JH[np.arange(l), H_cols] = 1.0

    def H(x):
        return x[H_cols], JH

    def G(x):
        vals = np.empty(l)
        jac = np.zeros((l, n))
        for i in range(N + 1):
            v, _, hh, _ = node_state(x, i)
            qh = phys.qheat(hh, v)
            vals[i] = phys.qrad_max - qh
            if i >= 1:
                off = 4 * (i - 1)
                jac[i, off] = -3.0 * qh / v
                jac[i, off + 2] = qh / (2.0 * phys.hscale)
        return vals, jac

    # --- initial guess: a simulated max-trim glide ---------------------------
    # Transcription solvers need a dynamically consistent seed; a kinematic
    # straight-line profile violates the flight-path dynamics by O(1) per
    # interval and strands the SQP far from the constraint manifold.  We
    # glide forward (thrust and cooling off, lift trimmed toward level
    # flight but clipped to its box) until the target altitude, take the
    # crossing time as the final-time guess, and replay the glide on the N
    # implicit-Euler nodes with a fixed-point solve per step so the defect
    # rows start at round-off.
    def trim_cl(st):
        v, gam, hh, _ = st
        qd = 0.5 * phys.rho(hh) * phys.S
        need = phys.mass * v * math.cos(gam) * (phys.grav(hh) / v - v / (phys.RE + hh))
        return min(max(need / max(qd * v * v, 1e-12), consts["cl_min"]), consts["cl_max"])

    dt_fine = 0.25
    st = s0.copy()
    t_cross = 0.0
    while st[2] > consts["guess_h_final_km"] and t_cross < 0.75 * consts["tau_max_s"]:
        u_g = np.array([trim_cl(st), 0.0, 0.0])
        F1, _, _ = phys.dyn(st, u_g)
        F2, _, _ = phys.dyn(st + 0.5 * dt_fine * F1, u_g)
        st = st + dt_fine * F2
        t_cross += dt_fine
    tau0 = max(t_cross, consts["tau_min_s"] + 1.0) / tref

    def coarse_glide(tau_s):
        """Replay the glide on the N implicit-Euler nodes for final time
        tau_s (seconds); returns (states, controls) with defect rows at
        round-off."""
        delta = tau_s / N
        states = np.zeros((N, 4))
        ctrls = np.zeros((N + 1, 3))
        cur_s = s0.copy()
        ctrls[0] = [trim_cl(cur_s), 0.0, 0.0]
        for i in range(1, N + 1):
            u_g = np.array([trim_cl(cur_s), 0.0, 0.0])
            nxt = cur_s + delta * phys.dyn(cur_s, u_g)[0]
            for _ in range(3):
                u_g = np.array([trim_cl(nxt), 0.0, 0.0])
                # Newton on z - cur - delta F(z, u) = 0 (the step is too
                # large for plain fixed-point iteration)
                for _ in range(8):
                    F, dFx, _ = phys.dyn(nxt, u_g)
                    res = nxt - cur_s - delta * F
                    nxt = nxt - np.linalg.solve(np.eye(4) - delta * dFx, res)
            if not np.all(np.isfinite(nxt)) or nxt[2] < -2.0 or nxt[0] <= 0.0:
                states[i - 1 :] = np.nan
                return states, ctrls
            states[i - 1] = nxt
            ctrls[i] = u_g
            cur_s = nxt
        return states, ctrls

    # the coarse discretization descends slower than the fine glide, so
    # stretch the final-time guess until the end node is near the target,
    # then bisect to avoid overshooting below ground
    target = consts["h_final_max_km"]

    def glide_end(states):
        hN = states[-1, 2]
        return -np.inf if not np.isfinite(hN) else hN

    tau_guess = tau0 * tref
    lo = tau_guess
    states_g, ctrls_g = coarse_glide(tau_guess)
    for _ in range(12):
        hN = glide_end(states_g)
        if hN <= target + 0.2 or tau_guess >= consts["tau_max_s"]:
            break
        lo = tau_guess
        tau_guess = min(1.3 * tau_guess, consts["tau_max_s"])
        states_g, ctrls_g = coarse_glide(tau_guess)
    if glide_end(states_g) < 0.0:
        hi = tau_guess
        for _ in range(16):
            mid = 0.5 * (lo + hi)
            s_mid, c_mid = coarse_glide(mid)
            h_mid = glide_end(s_mid)
            if 0.0 <= h_mid <= target + 0.2:
                tau_guess, states_g, ctrls_g = mid, s_mid, c_mid
                break
            if h_mid < 0.0:
                hi = mid
            else:
                lo = mid
                tau_guess, states_g, ctrls_g = mid, s_mid, c_mid
    if not np.all(np.isfinite(states_g)):
        # fall back to the bracket's feasible endpoint
        states_g, ctrls_g = coarse_glide(lo)
        tau_guess = lo
    x0 = np.zeros(n)
    x0[tau_idx] = tau_guess / tref
    x0[:n_states] = states_g.ravel()
    x0[n_states : n_states + 3 * (N + 1)] = ctrls_g.ravel()

    def unpack(x: np.ndarray) -> dict:
        tau = float(x[tau_idx]) * tref
        states = np.vstack([s0] + [state(x, i) for i in range(1, N + 1)])
        ctrls = np.vstack([ctrl(x, i) for i in range(N + 1)])
        qrate = np.array([phys.qheat(states[i, 2], states[i, 0]) for i in range(N + 1)])
        return {
            "t": np.linspace(0.0, tau, N + 1),
            "v_km_s": states[:, 0],
            "gamma_rad": states[:, 1],
            "h_km": states[:, 2],
            "Q_T_j_cm2": states[:, 3],
            "C_L": ctrls[:, 0],
            "thrust_n": ctrls[:, 1] * 1e6,
            "Qc_w_cm2": ctrls[:, 2],
            "heat_rate_w_cm2": qrate,
            "tau_f_s": tau,
        }

    return MpvcProblem(
        name="aerothermo",
        n=n,
        m=m,
        p=4 * N,
        l=l,
        f=f,
        g=g,
        h=h,
        G=G,
        H=H,
        known_points={"x0": x0},
        meta={
            "N": N,
            "constants": consts,
            "physics": phys,
            "tau_idx": tau_idx,
            "unpack": unpack,
        },
    )

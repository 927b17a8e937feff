"""Frozen per-member and per-step reference implementations.

These are the loops that the stacked audit and the batched training loop in
`rkdlab` replaced, kept verbatim in their arithmetic: one QR per rotation, one
majority labeling and one skeleton per family member, and per training step
two `np.add.at` scatters and one population-loss evaluation; the SSL
objective of one student as first fused into one pass; and the SSL run's own
momentum loop, from before it shared its loop with `train_student`.
The oracle tests require the library to give the same floats, labels,
verdicts and errors.
"""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np

from rkdlab import clustering_audit as ca
from rkdlab import spectral_rkd as sr
from rkdlab import ssl_harness as sh
from rkdlab.errors import DomainError, NumericError, TrainingDivergedError
from rkdlab.graph_core import inter_class_fraction, normalized_adjacency, spectral_decompose
from rkdlab.teacher_kernel import KernelSpec, kernel_matrix


def random_rotation(K, rng):
    q, r = np.linalg.qr(rng.standard_normal((K, K)))
    return q * np.sign(np.diag(r))


def majority_label(f, g, predicted=None):
    if predicted is None:
        predicted = f.hard_labels()
    predicted = np.asarray(predicted, dtype=int)
    if predicted.shape != (g.size,):
        raise DomainError("predicted labels misaligned with the vertex set")
    deg = g.degrees()
    label = np.empty(g.size, dtype=int)
    for cluster in np.unique(predicted):
        members = predicted == cluster
        masses = np.zeros(g.num_classes)
        np.add.at(masses, g.labels[members], deg[members])
        top = masses.max()
        winners = np.nonzero(masses >= top)[0]
        label[members] = winners[0]
    minority = label != g.labels
    return ca.MajorityLabeling(
        label=label,
        minority_mask=minority,
        minority_mass=float(deg[minority].sum()),
        predicted=predicted,
    )


def skeleton_and_margin(f, g, maj=None):
    if maj is None:
        maj = majority_label(f, g)
    K = f.num_classes
    if not ca.halves_condition(maj, g):
        return ca.SkeletonReport(None, None, False, "minority mass exceeds half of some class")
    candidates = np.nonzero(~maj.minority_mask)[0]
    if len(candidates) == 0:
        return ca.SkeletonReport(None, None, False, "no non-minority vertices")
    skeleton = []
    for k in range(K):
        col = f.scores[candidates, k]
        skeleton.append(int(candidates[int(np.argmax(col))]))
    predicted = maj.predicted
    if any(predicted[s] != k for k, s in enumerate(skeleton)):
        bad = [k for k, s in enumerate(skeleton) if predicted[s] != k]
        return ca.SkeletonReport(None, None, False, f"skeleton vertex predicts the wrong class for k={bad}")
    fs = f.scores[skeleton, :]
    svals = np.linalg.svd(fs, compute_uv=False)
    rank_ok = bool(svals[-1] > ca.RANK_TOL)
    beta = float(svals[0])
    gammas = []
    for k in range(K):
        competitors = maj.minority_mask & (predicted != k)
        if competitors.any():
            gammas.append(float(f.scores[skeleton[k], k] - f.scores[competitors, k].max()))
        else:
            gammas.append(math.inf)
    gamma = min(gammas)
    if not rank_ok:
        return ca.SkeletonReport(beta, gamma, False, "skeleton matrix rank-deficient")
    if not gamma > 0:
        return ca.SkeletonReport(beta, gamma, False, f"non-positive margin {gamma}")
    return ca.SkeletonReport(beta, gamma, True, "")


def theorem1_check(f_family, g):
    if not f_family:
        raise DomainError("empty prediction family")
    dec = spectral_decompose(g)
    alpha = inter_class_fraction(g)
    K = f_family[0].num_classes
    mu = 0.0
    beta = 0.0
    gamma = math.inf
    skipped = []
    audited = 0
    for idx, f in enumerate(f_family):
        maj = majority_label(f, g)
        skel = skeleton_and_margin(f, g, maj)
        if not skel.applicable:
            skipped.append((idx, skel.reason))
            continue
        audited += 1
        mu = max(mu, maj.minority_mass)
        beta = max(beta, skel.beta)
        gamma = min(gamma, skel.gamma)
    bound = lam_next = None
    if K >= g.size:
        verdict = "bound-undefined: K+1 exceeds |X|"
    else:
        lam_next = float(dec.eigenvalues[K])
        if lam_next <= 1e-12:
            verdict = "bound-undefined: lambda_{K+1} ~ 0"
        elif audited == 0:
            verdict = "not-applicable: every member skipped"
        else:
            bound = 2.0 * ca.margin_prefactor(beta, gamma) * alpha / lam_next
            verdict = "pass" if mu <= bound + ca.VERDICT_SLACK else "fail"
    if audited == 0:  # nothing measured
        mu = beta = gamma = None
    return {"verdict": verdict, "mu": mu, "bound": bound, "alpha": alpha, "beta": beta, "gamma": gamma,
            "lambda_next": lam_next, "skipped": skipped}


def population_rkd_loss(f, g):
    scores = f.scores
    if scores.shape[0] != g.size:
        raise DomainError(f"prediction rows {scores.shape[0]} != |X| = {g.size}")
    deg = g.degrees()
    sd = np.sqrt(deg)
    wbar = normalized_adjacency(g)
    gram = (scores * sd[:, None]) @ (scores * sd[:, None]).T
    matrix_form = float(np.linalg.norm(wbar - gram) ** 2)
    kmat = kernel_matrix(KernelSpec.graph_revealing(), g)
    expectation_form = float((np.outer(deg, deg) * (f.scores @ f.scores.T - kmat) ** 2).sum())
    if abs(matrix_form - expectation_form) > sr.LOSS_AGREEMENT_TOL * max(1.0, matrix_form):
        raise NumericError(
            f"population loss forms disagree: {matrix_form!r} vs {expectation_form!r}"
        )
    return matrix_form


def _loss_and_grad(model, features, a, b, u, kvals):
    scores = model.forward(features)
    fa, fb = scores[a], scores[b]
    resid = np.sum(fa * fb, axis=1) - kvals
    loss = float(np.sum(u * resid**2))
    coef = (2.0 * u * resid)[:, None]
    gscores = np.zeros_like(scores)
    np.add.at(gscores, a, coef * fb)
    np.add.at(gscores, b, coef * fa)
    return loss, model.backward(features, gscores)


def train_student(model, g, kernel, opt, features=None, trace_out=None):
    """The training loop with its per-step trace, without the step-0
    gradient check (which changes neither the parameters nor the trace)."""
    kmat = kernel if isinstance(kernel, np.ndarray) else kernel_matrix(kernel, g)
    model = model.copy()
    rng = np.random.default_rng(opt.seed)

    if opt.sampler == "exhaustive":
        batch_fn = None
        n = g.size
        a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        a, b = a.ravel(), b.ravel()
        deg = g.degrees()
        a0, b0, u0, k0 = a, b, deg[a] * deg[b], kmat[a, b]
    else:
        table = sr._PairTable.build(np.arange(g.size), g.degrees())

        def batch_fn():
            pairs = table.draw(rng, opt.sampler)
            a, b = pairs[:, 0], pairs[:, 1]
            return a, b, np.full(len(a), 1.0 / len(a)), kmat[a, b]

        a0, b0, u0, k0 = batch_fn()

    velocity = np.zeros_like(model.parameters)
    trace = []
    a, b, u, kv = a0, b0, u0, k0
    for step in range(opt.iterations):
        if batch_fn is not None:
            a, b, u, kv = batch_fn()
        loss, grad = _loss_and_grad(model, features, a, b, u, kv)
        trace.append(loss)
        if trace_out is not None:
            trace_out.append((step, loss, population_rkd_loss(model.prediction(features), g)))
        if not math.isfinite(loss) or loss > sr.DIVERGENCE_CAP:
            raise TrainingDivergedError(f"loss {loss!r} at step {step}", trace=trace)
        velocity = opt.momentum * velocity - opt.step_size * grad
        model.parameters = model.parameters + velocity
        if opt.b_f is not None:
            sr._project_rows(model, features, opt.b_f)

    pred = model.prediction(features)
    pop = population_rkd_loss(pred, g)
    emp, _ = _loss_and_grad(model, features, a, b, u, kv)
    return model, (pop, emp)


# one student's loss terms on one batch, and the parameter gradient of the total
LossReport = collections.namedtuple("LossReport", "total cross_entropy dac rkd confident_count grad")


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def combined_loss(model, features, labeled, weak_strong_pairs, rkd_pairs, kmat, loss_cfg):
    """The combined objective as first fused into one pass, kept verbatim as a
    bit-for-bit oracle: later rewrites must return the same floats."""
    scores = model.forward(features)
    gscores = np.zeros_like(scores)
    lam_dac = float(loss_cfg.get("lambda_dac", 1.0))
    lam_rkd = float(loss_cfg.get("lambda_rkd", 0.0))
    tau = float(loss_cfg.get("tau_dac", 0.95))
    temp = float(loss_cfg.get("temperature", 1.0))

    ce = 0.0
    verts = labeled.vertices()
    if len(verts):
        probs = _softmax(scores[verts])
        rows, classes = np.arange(len(verts)), labeled.classes()
        ce = float(-np.log(np.maximum(probs[rows, classes], 1e-300)).mean())
        probs[rows, classes] -= 1.0
        np.add.at(gscores, verts, probs / len(verts))

    dac = 0.0
    kept = 0
    if weak_strong_pairs is not None and len(weak_strong_pairs) and lam_dac > 0:
        ws = np.asarray(weak_strong_pairs, dtype=int)
        weak_probs = _softmax(scores[ws[:, 0]] / temp)
        confident = weak_probs.max(axis=1) >= tau
        kept = int(confident.sum())
        if kept:
            pseudo = np.argmax(scores[ws[confident, 0]], axis=1)
            strong = ws[confident, 1]
            strong_probs = _softmax(scores[strong])
            rows = np.arange(kept)
            dac = float(-np.log(np.maximum(strong_probs[rows, pseudo], 1e-300)).mean())
            strong_probs[rows, pseudo] -= 1.0
            np.add.at(gscores, strong, lam_dac * strong_probs / kept)

    rkd = 0.0
    if rkd_pairs is not None and len(rkd_pairs) and lam_rkd > 0:
        pr = np.asarray(rkd_pairs, dtype=int)
        a, b = pr[:, 0], pr[:, 1]
        resid = np.sum(scores[a] * scores[b], axis=1) - kmat[a, b]
        rkd = float(np.mean(resid**2))
        coef = (2.0 * lam_rkd / len(pr)) * resid
        np.add.at(gscores, a, coef[:, None] * scores[b])
        np.add.at(gscores, b, coef[:, None] * scores[a])

    total = ce + lam_dac * dac + lam_rkd * rkd
    return LossReport(total=total, cross_entropy=ce, dac=dac, rkd=rkd, confident_count=kept,
                      grad=model.backward(features, gscores))


def ssl_train(cfg, seed):
    """The training loop of `run_experiment` with the run's fixtures, without
    a gradient check or row projection; returns (loss rows, parameters)."""
    g, points = sh.build_graph_fixture(cfg)
    aug = sh.build_augmentation_fixture(cfg, g, points)
    kmat = sh.build_kernel_fixture(cfg, g, points)
    labeled = sh.acquire_labels(cfg, g, kmat, seed)
    model, features = sh.build_student(g, points, seed, **cfg.student)

    opt = cfg.opt
    rng = np.random.default_rng((seed, 1))
    unlabeled = np.setdiff1d(np.arange(g.size), labeled.vertices())
    pool = np.arange(g.size) if opt.recycle_labeled else unlabeled
    views = sh._ViewTable.build(aug, pool)
    pairs = sr._PairTable.build(pool, g.degrees()[pool] / g.degrees()[pool].sum())
    num_pairs = max(2, g.size) if opt.rkd_pairs is None else opt.rkd_pairs

    losses = []
    velocity = np.zeros_like(model.parameters)
    for step in range(opt.iterations):
        ws = views.draw(rng)
        report = combined_loss(model, features, labeled, ws, pairs.draw(rng, num_pairs), kmat,
                               dataclasses.asdict(cfg.loss_weights))
        if not math.isfinite(report.total) or report.total > sr.DIVERGENCE_CAP:
            raise TrainingDivergedError(f"combined loss {report.total!r} at step {step}",
                                        trace=[r["total"] for r in losses])
        losses.append({
            "total": report.total, "cross_entropy": report.cross_entropy,
            "dac": report.dac, "rkd": report.rkd, "confident": report.confident_count,
        })
        velocity *= opt.momentum
        velocity -= opt.step_size * report.grad
        model.parameters += velocity
    return losses, model.parameters

"""Brute-force reference implementations used by the correctness gates.

Written from the method's definition, independently of btckit: top-M is a
stable sort on descending score (ascending index on ties), codes come from
the normal equations solved by ``np.linalg.solve``, and the class with the
smallest residual wins (lowest class on ties). Class ids are the sorted
distinct training labels; columns keep their input order within a class.
"""

from __future__ import annotations

import numpy as np


def group_by_class(samples: np.ndarray, labels: np.ndarray):
    """Columns (B x N) grouped by ascending label, the sorted labels, and classes."""
    classes = np.unique(labels)
    order = np.argsort(labels, kind="stable")
    return samples[order].T.astype(np.float64), labels[order], classes


def l2_columns(samples: np.ndarray, labels: np.ndarray):
    A, col_labels, classes = group_by_class(samples, labels)
    return A / np.linalg.norm(A, axis=0), col_labels, classes


def range_scaling(train: np.ndarray):
    lo, hi = train.min(axis=0), train.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    return lambda x: (np.asarray(x, dtype=np.float64) - lo) / span


def top_m(scores: np.ndarray, m: int) -> np.ndarray:
    return np.argsort(-scores, kind="stable")[:m]


def _gram_residuals(kyy, v, G, support, x, col_labels, classes):
    """Per-class residual sqrt(K(y,y) - 2 x'v + x'Gx); empty classes give sqrt(K(y,y))."""
    out = np.full(classes.size, np.sqrt(max(kyy, 0.0)))
    for k, c in enumerate(classes):
        own = col_labels[support] == c
        if own.any():
            s, xs = support[own], x[own]
            out[k] = np.sqrt(max(kyy - 2.0 * xs @ v[s] + xs @ G[np.ix_(s, s)] @ xs, 0.0))
    return out


def btc_labels(train, train_labels, test, m, alpha):
    """Linear BTC predictions (original label values) for the rows of ``test``."""
    A, col_labels, classes = l2_columns(train, train_labels)
    preds = []
    for y in np.asarray(test, dtype=np.float64):
        y = y / np.linalg.norm(y)
        support = top_m(np.abs(A.T @ y), m)
        D = A[:, support]
        x = np.linalg.solve(D.T @ D + alpha * np.eye(m), D.T @ y)
        res = np.ones(classes.size)
        for k, c in enumerate(classes):
            own = col_labels[support] == c
            if own.any():
                res[k] = np.linalg.norm(y - D[:, own] @ x[own])
        preds.append(classes[int(np.argmin(res))])
    return np.array(preds)


def rbf(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||x - y||^2) between the columns of X and Y, by direct differences."""
    out = np.empty((X.shape[1], Y.shape[1]))
    for j in range(0, Y.shape[1], 16):  # chunked to bound the B x N x 16 temporary
        d2 = ((X[:, :, None] - Y[:, None, j : j + 16]) ** 2).sum(axis=0)
        out[:, j : j + 16] = np.exp(-gamma * d2)
    return out


def kbtc_labels(train, train_labels, test, m, alpha, gamma):
    """RBF-kernel BTC predictions on range-scaled features."""
    scale = range_scaling(train)
    A, col_labels, classes = group_by_class(scale(train), train_labels)
    G = rbf(A, A, gamma)
    preds = []
    for y in scale(test):
        v = rbf(A, y[:, None], gamma)[:, 0]
        support = top_m(v, m)
        x = np.linalg.solve(G[np.ix_(support, support)] + alpha * np.eye(m), v[support])
        res = _gram_residuals(1.0, v, G, support, x, col_labels, classes)
        preds.append(classes[int(np.argmin(res))])
    return np.array(preds)


def beta_average(G, col_labels, classes, m, alpha, signed):
    """Mean sufficient-identification ratio over all columns for one M.

    Column g is coded on the M-1 atoms ranked highest against it (itself
    excluded) and scored as own-class residual over the best rival residual.
    ``signed`` ranks by raw kernel value (RBF), otherwise by magnitude.
    """
    total = 0.0
    n = G.shape[0]
    for g in range(n):
        v = G[:, g]
        order = np.argsort(-(v if signed else np.abs(v)), kind="stable")
        support = order[order != g][: m - 1]
        if support.size:
            x = np.linalg.solve(G[np.ix_(support, support)] + alpha * np.eye(support.size), v[support])
        else:
            x = np.empty(0)
        res = _gram_residuals(G[g, g], v, G, support, x, col_labels, classes)
        own = int(np.flatnonzero(classes == col_labels[g])[0])
        rival = np.delete(res, own).min()
        total += np.inf if rival == 0 else res[own] / rival
    return total / n


def btc_beta(train, train_labels, m, alpha):
    A, col_labels, classes = l2_columns(train, train_labels)
    return beta_average(A.T @ A, col_labels, classes, m, alpha, signed=False)


def kbtc_beta(train, train_labels, m, alpha, gamma):
    A, col_labels, classes = group_by_class(range_scaling(train)(train), train_labels)
    return beta_average(rbf(A, A, gamma), col_labels, classes, m, alpha, signed=True)


def kbtc_gamma_beta(train, train_labels, alpha, gamma):
    """Beta averaged over M = 1..B-1 and all columns at one gamma."""
    A, col_labels, classes = group_by_class(range_scaling(train)(train), train_labels)
    G = rbf(A, A, gamma)
    ms = range(1, A.shape[0])
    return float(np.mean([beta_average(G, col_labels, classes, m, alpha, True) for m in ms]))

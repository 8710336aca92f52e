"""Reference BPTT kernels: the original per-gate, per-step derivation.

Every gate has its own weight pair and every step its own weight-gradient
matmuls, with no hoisting, exactly as first derived. The shared recurrent
training core must reproduce their loss and gradients; tests compare the two.
"""

import numpy as np


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def rnn_loss_and_grads(
    params: list[np.ndarray], inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """MSE over every step of every window, gradients by full BPTT."""
    w_h, w_x, b = params[0:-2:3], params[1:-2:3], params[2:-2:3]
    n_layers = len(w_h)
    w_out, b_out = params[-2], params[-1]

    batch, steps, _ = inputs.shape
    # hidden[l] has steps+1 slots; slot 0 is the zero initial state
    hidden = []
    layer_in = inputs
    for l in range(n_layers):
        units = w_h[l].shape[0]
        h = np.zeros((batch, steps + 1, units))
        for t in range(steps):
            h[:, t + 1] = np.tanh(h[:, t] @ w_h[l].T + layer_in[:, t] @ w_x[l].T + b[l])
        hidden.append(h)
        layer_in = h[:, 1:]
    outputs = layer_in @ w_out + b_out

    m = batch * steps
    residual = outputs - targets
    loss = float(np.sum(residual**2) / m)
    d_out = 2.0 * residual / m

    g_wh = [np.zeros_like(w) for w in w_h]
    g_wx = [np.zeros_like(w) for w in w_x]
    g_b = [np.zeros_like(v) for v in b]
    g_w_out = np.einsum("btu,bt->u", hidden[-1][:, 1:], d_out)
    g_b_out = np.asarray(d_out.sum())

    d_time = [np.zeros((batch, w.shape[0])) for w in w_h]
    for t in range(steps - 1, -1, -1):
        d_above = d_out[:, t, None] * w_out
        for l in range(n_layers - 1, -1, -1):
            h_t = hidden[l][:, t + 1]
            dz = (d_above + d_time[l]) * (1.0 - h_t**2)
            below = inputs[:, t] if l == 0 else hidden[l - 1][:, t + 1]
            g_wh[l] += dz.T @ hidden[l][:, t]
            g_wx[l] += dz.T @ below
            g_b[l] += dz.sum(axis=0)
            d_time[l] = dz @ w_h[l]
            d_above = dz @ w_x[l]

    grads: list[np.ndarray] = []
    for l in range(n_layers):
        grads.extend([g_wh[l], g_wx[l], g_b[l]])
    grads.extend([g_w_out, g_b_out])
    return loss, grads


def lstm_loss_and_grads(
    params: list[np.ndarray], inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """MSE over every step of every window, gradients by full BPTT."""
    per = [params[k : k + 12] for k in range(0, len(params) - 2, 12)]
    n_layers = len(per)
    w_out, b_out = params[-2], params[-1]

    batch, steps, _ = inputs.shape
    hidden, cell = [], []  # steps+1 slots, slot 0 zero
    gate_f, gate_i, gate_o, cand = [], [], [], []  # steps slots
    layer_in = inputs
    for l in range(n_layers):
        w_fh, w_fx, b_f, w_ih, w_ix, b_i, w_oh, w_ox, b_o, w_ch, w_cx, b_c = per[l]
        units = w_fh.shape[0]
        h = np.zeros((batch, steps + 1, units))
        c = np.zeros((batch, steps + 1, units))
        f = np.empty((batch, steps, units))
        i = np.empty((batch, steps, units))
        o = np.empty((batch, steps, units))
        cd = np.empty((batch, steps, units))
        for t in range(steps):
            h_prev, x_t = h[:, t], layer_in[:, t]
            f[:, t] = sigmoid(h_prev @ w_fh.T + x_t @ w_fx.T + b_f)
            i[:, t] = sigmoid(h_prev @ w_ih.T + x_t @ w_ix.T + b_i)
            o[:, t] = sigmoid(h_prev @ w_oh.T + x_t @ w_ox.T + b_o)
            cd[:, t] = np.tanh(h_prev @ w_ch.T + x_t @ w_cx.T + b_c)
            c[:, t + 1] = f[:, t] * c[:, t] + i[:, t] * cd[:, t]
            h[:, t + 1] = o[:, t] * np.tanh(c[:, t + 1])
        hidden.append(h)
        cell.append(c)
        gate_f.append(f)
        gate_i.append(i)
        gate_o.append(o)
        cand.append(cd)
        layer_in = h[:, 1:]
    outputs = layer_in @ w_out + b_out

    m = batch * steps
    residual = outputs - targets
    loss = float(np.sum(residual**2) / m)
    d_out = 2.0 * residual / m

    g_per = [[np.zeros_like(a) for a in layer] for layer in per]
    g_w_out = np.einsum("btu,bt->u", hidden[-1][:, 1:], d_out)
    g_b_out = np.asarray(d_out.sum())

    d_time_h = [np.zeros((batch, layer[0].shape[0])) for layer in per]
    d_time_c = [np.zeros((batch, layer[0].shape[0])) for layer in per]
    for t in range(steps - 1, -1, -1):
        d_above = d_out[:, t, None] * w_out
        for l in range(n_layers - 1, -1, -1):
            w_fh, w_fx, _, w_ih, w_ix, _, w_oh, w_ox, _, w_ch, w_cx, _ = per[l]
            f, i, o, cd = gate_f[l][:, t], gate_i[l][:, t], gate_o[l][:, t], cand[l][:, t]
            tan_c = np.tanh(cell[l][:, t + 1])
            dh = d_above + d_time_h[l]
            do = dh * tan_c
            dc = d_time_c[l] + dh * o * (1.0 - tan_c**2)
            df = dc * cell[l][:, t]
            di = dc * cd
            dcd = dc * i
            d_time_c[l] = dc * f
            dz_f = df * f * (1.0 - f)
            dz_i = di * i * (1.0 - i)
            dz_o = do * o * (1.0 - o)
            dz_c = dcd * (1.0 - cd**2)
            h_prev = hidden[l][:, t]
            below = inputs[:, t] if l == 0 else hidden[l - 1][:, t + 1]
            for k, dz in enumerate((dz_f, dz_i, dz_o, dz_c)):
                g_per[l][3 * k] += dz.T @ h_prev
                g_per[l][3 * k + 1] += dz.T @ below
                g_per[l][3 * k + 2] += dz.sum(axis=0)
            d_time_h[l] = dz_f @ w_fh + dz_i @ w_ih + dz_o @ w_oh + dz_c @ w_ch
            d_above = dz_f @ w_fx + dz_i @ w_ix + dz_o @ w_ox + dz_c @ w_cx

    grads: list[np.ndarray] = []
    for layer in g_per:
        grads.extend(layer)
    grads.extend([g_w_out, g_b_out])
    return loss, grads

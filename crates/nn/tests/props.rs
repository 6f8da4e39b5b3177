//! Property-based invariants for the NN library.

use lingxi_nn::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    // Each case builds matrices/nets; keep the count moderate so
    // `cargo test -q` stays in CI time. Override with PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn softmax_rows_are_distributions(
        rows in 1usize..6,
        cols in 2usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| rand::Rng::gen_range(&mut rng, -50.0..50.0))
            .collect();
        let m = Matrix::from_vec(rows, cols, data).unwrap();
        let s = softmax(&m);
        for r in 0..rows {
            let sum: f64 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(s.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn matmul_matches_identity(
        n in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * n)
            .map(|_| rand::Rng::gen_range(&mut rng, -10.0..10.0))
            .collect();
        let a = Matrix::from_vec(n, n, data).unwrap();
        let mut eye = Matrix::zeros(n, n);
        for i in 0..n {
            eye.set(i, i, 1.0);
        }
        let prod = a.matmul(&eye).unwrap();
        for (x, y) in prod.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_involution(
        rows in 1usize..7,
        cols in 1usize..7,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| rand::Rng::gen_range(&mut rng, -5.0..5.0))
            .collect();
        let a = Matrix::from_vec(rows, cols, data).unwrap();
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn cross_entropy_nonnegative(
        cols in 2usize..6,
        label in 0usize..6,
        seed in 0u64..1000,
    ) {
        let label = label % cols;
        let mut rng = StdRng::seed_from_u64(seed);
        let logits: Vec<f64> = (0..cols)
            .map(|_| rand::Rng::gen_range(&mut rng, -10.0..10.0))
            .collect();
        let m = Matrix::from_vec(1, cols, logits).unwrap();
        let (loss, grad) = softmax_cross_entropy(&m, &[label]).unwrap();
        prop_assert!(loss >= 0.0);
        // Gradient sums to zero per row (softmax simplex constraint).
        let g: f64 = grad.row(0).iter().sum();
        prop_assert!(g.abs() < 1e-9);
    }

    #[test]
    fn dense_forward_shape_stable(
        batch in 1usize..6,
        input in 1usize..6,
        output in 1usize..6,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new()
            .push(Layer::Dense(Dense::new(input, output, &mut rng).unwrap()));
        let x = Matrix::zeros(batch, input);
        let y = net.forward(&x).unwrap();
        prop_assert_eq!(y.rows(), batch);
        prop_assert_eq!(y.cols(), output);
        prop_assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    /// The per-row convolution is the five-branch front end it replaced:
    /// a `rows`-row `Conv1d` equals one single-row `Conv1d` per row, built
    /// from the same RNG stream in row order, bit for bit — forward output
    /// (row blocks in row order), input gradient, and each row's weight
    /// and bias gradients in the per-row conv's list.
    #[test]
    fn per_row_conv_matches_single_row_convs(
        rows in 1usize..6,
        len in 1usize..10,
        kernel_pick in 0usize..10,
        filters in 1usize..5,
        batch in 1usize..4,
        seed in 0u64..1000,
    ) {
        let kernel = 1 + kernel_pick % len;
        let mut per_row = Layer::Conv1d(
            Conv1d::new(rows, len, filters, kernel, &mut StdRng::seed_from_u64(seed)).unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut singles: Vec<Layer> = (0..rows)
            .map(|_| Layer::Conv1d(Conv1d::new(1, len, filters, kernel, &mut rng).unwrap()))
            .collect();
        // Inputs and upstream gradients from another stream; a quarter of
        // the upstream entries are zero, as behind a ReLU.
        let mut data = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut draw = |n: usize, zeros: bool| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    if zeros && rand::Rng::gen_range(&mut data, 0..4) == 0 {
                        0.0
                    } else {
                        rand::Rng::gen_range(&mut data, -2.0..2.0)
                    }
                })
                .collect()
        };
        let out_len = len - kernel + 1;
        let block = filters * out_len;
        let x = Matrix::from_vec(batch, rows * len, draw(batch * rows * len, false)).unwrap();
        let g = Matrix::from_vec(batch, rows * block, draw(batch * rows * block, true)).unwrap();
        let y = per_row.forward(&x).unwrap();
        let gx = per_row.backward(&g).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut grads: Vec<Vec<u64>> = per_row.params().map(|(_, gr)| bits(gr)).collect();
        let (grad_b, grad_w) = (grads.pop().unwrap(), grads.pop().unwrap());
        prop_assert_eq!(grad_w.len(), rows * filters * kernel);
        prop_assert_eq!(grad_b.len(), rows * filters);
        // Row r's slice of a batch matrix whose rows hold `rows` blocks of
        // `width`.
        let slice = |m: &Matrix, r: usize, width: usize| -> Matrix {
            let data = (0..m.rows()).flat_map(|b| m.row(b)[r * width..(r + 1) * width].to_vec());
            Matrix::from_vec(m.rows(), width, data.collect()).unwrap()
        };
        for (r, single) in singles.iter_mut().enumerate() {
            let y_r = single.forward(&slice(&x, r, len)).unwrap();
            prop_assert_eq!(bits(y_r.as_slice()), bits(slice(&y, r, block).as_slice()));
            let gx_r = single.backward(&slice(&g, r, block)).unwrap();
            prop_assert_eq!(bits(gx_r.as_slice()), bits(slice(&gx, r, len).as_slice()));
            let (w, b) = (r * filters * kernel, r * filters);
            let single_grads: Vec<Vec<u64>> = single.params().map(|(_, gr)| bits(gr)).collect();
            prop_assert_eq!(&single_grads[0][..], &grad_w[w..w + filters * kernel]);
            prop_assert_eq!(&single_grads[1][..], &grad_b[b..b + filters]);
        }
    }
}

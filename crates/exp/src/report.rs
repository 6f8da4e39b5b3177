//! Experiment result containers: printable tables + CSV dumps.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::Result;

/// One named series of `(x, y)` points (x kept as a label so categorical
/// axes like quality tiers print naturally).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name (legend entry).
    pub name: String,
    /// `(x label, y value)` points in order.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Build from numeric x values.
    pub fn from_xy(name: &str, points: &[(f64, f64)]) -> Self {
        Self {
            name: name.to_string(),
            points: points
                .iter()
                .map(|(x, y)| (format!("{x:.4}"), *y))
                .collect(),
        }
    }

    /// Build from labelled points.
    pub fn from_labelled(name: &str, points: &[(&str, f64)]) -> Self {
        Self {
            name: name.to_string(),
            points: points.iter().map(|(x, y)| (x.to_string(), *y)).collect(),
        }
    }

    /// The y values.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|(_, y)| *y).collect()
    }
}

/// A complete experiment output.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Experiment id (`fig12`, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Key-value headline findings (effect sizes, correlations, ...).
    pub headline: Vec<(String, f64)>,
    /// All series.
    pub series: Vec<Series>,
}

impl ExperimentResult {
    /// New empty result.
    pub fn new(id: &str, title: &str) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            headline: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Add a headline number.
    pub fn headline_value(&mut self, name: &str, value: f64) {
        self.headline.push((name.to_string(), value));
    }

    /// Fetch a headline number by name.
    pub fn headline_named(&self, name: &str) -> Option<f64> {
        self.headline
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Add a series.
    pub fn push_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Fetch a series by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// FNV-1a over the id, the headline `(name, f64 bits)` and every
    /// series' `(name, label, f64 bits)`. Each figure's unit test pins it,
    /// so a reordered RNG draw fails a test instead of shifting a curve.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.id.as_bytes());
        for (name, value) in &self.headline {
            eat(name.as_bytes());
            eat(&value.to_bits().to_le_bytes());
        }
        for s in &self.series {
            eat(s.name.as_bytes());
            for (label, y) in &s.points {
                eat(label.as_bytes());
                eat(&y.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Render as a text report (what the CLI prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} — {} ===", self.id, self.title);
        if !self.headline.is_empty() {
            let _ = writeln!(out, "headline:");
            for (k, v) in &self.headline {
                let _ = writeln!(out, "  {k:<42} {v:>12.4}");
            }
        }
        for s in &self.series {
            let _ = writeln!(out, "series: {}", s.name);
            for (x, y) in &s.points {
                let _ = writeln!(out, "  {x:>14}  {y:>12.6}");
            }
        }
        out
    }

    /// Write one CSV per series under `dir/<id>/`.
    pub fn write_csv<P: AsRef<Path>>(&self, dir: P) -> Result<()> {
        let base = dir.as_ref().join(&self.id);
        fs::create_dir_all(&base)?;
        for s in &self.series {
            let safe: String = s
                .name
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            let mut csv = String::from("x,y\n");
            for (x, y) in &s.points {
                let _ = writeln!(csv, "{x},{y}");
            }
            fs::write(base.join(format!("{safe}.csv")), csv)?;
        }
        if !self.headline.is_empty() {
            let mut csv = String::from("metric,value\n");
            for (k, v) in &self.headline {
                let _ = writeln!(csv, "{k},{v}");
            }
            fs::write(base.join("headline.csv"), csv)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_builders() {
        let s = Series::from_xy("a", &[(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.ys(), vec![2.0, 4.0]);
        let l = Series::from_labelled("b", &[("LD", 0.1)]);
        assert_eq!(l.points[0].0, "LD");
    }

    #[test]
    fn render_contains_everything() {
        let mut r = ExperimentResult::new("figX", "Test");
        r.headline_value("effect", 0.146);
        r.push_series(Series::from_labelled("ws", &[("d1", 1.0)]));
        let text = r.render();
        assert!(text.contains("figX"));
        assert!(text.contains("effect"));
        assert!(text.contains("d1"));
        assert!(r.series_named("ws").is_some());
        assert!(r.series_named("nope").is_none());
        assert_eq!(r.headline_named("effect"), Some(0.146));
        assert_eq!(r.headline_named("nope"), None);
        // One ulp in one value is a different fingerprint.
        let pinned = r.fingerprint();
        r.series[0].points[0].1 = f64::from_bits(1.0f64.to_bits() + 1);
        assert_ne!(r.fingerprint(), pinned);
    }

    #[test]
    fn csv_written() {
        let dir = std::env::temp_dir().join(format!("lingxi_exp_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = ExperimentResult::new("figY", "Test");
        r.headline_value("x", 1.0);
        r.push_series(Series::from_xy("curve/1", &[(0.0, 1.0)]));
        r.write_csv(&dir).unwrap();
        assert!(dir.join("figY").join("curve_1.csv").exists());
        assert!(dir.join("figY").join("headline.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

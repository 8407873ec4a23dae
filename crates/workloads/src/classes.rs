//! NPB problem classes.
//!
//! The paper uses CLASS C (basic tests, 4 ranks) and CLASS D (emulation
//! study and strong scaling, 16+ ranks); FT falls back to CLASS C in the
//! emulation study for running-time reasons. Classes here scale both the
//! footprints and the iteration counts; iteration counts are shortened
//! uniformly (the steady-state behaviour repeats, and the runtime's
//! decisions happen within the first few iterations).

/// NPB problem class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Miniature, for tests: everything fits caches; runs in microseconds.
    S,
    /// Paper CLASS C: the basic-performance-test input (4 ranks).
    C,
    /// Paper CLASS D: the emulation-study input (16 ranks).
    D,
}

impl Class {
    /// Linear footprint scale relative to CLASS C.
    pub fn scale(self) -> f64 {
        match self {
            Class::S => 1.0 / 256.0,
            Class::C => 1.0,
            Class::D => 8.0,
        }
    }

    /// Main-loop iterations to simulate (shortened uniformly; the paper's
    /// counts are 75–250).
    pub fn iterations(self) -> usize {
        match self {
            Class::S => 6,
            Class::C => 12,
            Class::D => 12,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::S => "S",
            Class::C => "C",
            Class::D => "D",
        }
    }
}

/// Scale a CLASS C byte size to `class`, dividing over `nranks`.
pub fn scaled_bytes(class_c_total: u64, class: Class, nranks: usize) -> u64 {
    ((class_c_total as f64 * class.scale()) / nranks as f64).max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_d_is_eight_c() {
        assert_eq!(scaled_bytes(1 << 20, Class::D, 1), 8 << 20);
    }

    #[test]
    fn ranks_divide_footprint() {
        assert_eq!(scaled_bytes(1 << 20, Class::C, 4), 1 << 18);
    }

    #[test]
    fn class_s_is_tiny() {
        assert!(scaled_bytes(1 << 30, Class::S, 1) <= 4 << 20);
    }

    #[test]
    fn never_zero() {
        assert!(scaled_bytes(1, Class::S, 1024) >= 1);
    }
}

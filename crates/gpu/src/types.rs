//! Shared identifier newtypes for the device model.

use std::fmt;

/// Transfer direction. Kepler-class devices have one DMA engine per
/// direction, so this also indexes the copy engines.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dir {
    /// Host to device.
    HtoD,
    /// Device to host.
    DtoH,
}

impl Dir {
    /// Engine index (0 = HtoD, 1 = DtoH).
    pub const fn index(self) -> usize {
        match self {
            Dir::HtoD => 0,
            Dir::DtoH => 1,
        }
    }

    /// Both directions, in engine-index order.
    pub const ALL: [Dir; 2] = [Dir::HtoD, Dir::DtoH];
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::HtoD => write!(f, "HtoD"),
            Dir::DtoH => write!(f, "DtoH"),
        }
    }
}

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
        pub struct $name(pub u32);

        impl $name {
            /// Index into dense per-id storage.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type! {
    /// An application instance (one simulated host thread).
    AppId
}
id_type! {
    /// A CUDA stream.
    StreamId
}
id_type! {
    /// A device-side operation (copy or kernel) in the op arena.
    OpId
}
id_type! {
    /// A launched grid tracked by the grid management unit.
    GridId
}
id_type! {
    /// A host-side mutex.
    MutexId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_indices_are_distinct() {
        assert_eq!(Dir::HtoD.index(), 0);
        assert_eq!(Dir::DtoH.index(), 1);
        assert_eq!(Dir::ALL.len(), 2);
    }

    #[test]
    fn id_display_and_index() {
        assert_eq!(AppId(3).to_string(), "AppId(3)");
        assert_eq!(StreamId(9).index(), 9);
        assert!(OpId(1) < OpId(2));
    }
}

//! Standard registries: the schemes ported in the paper plus the two
//! compressors its evaluation targets.

use crate::scheme::Scheme;
use crate::schemes::{
    GanguliScheme, JinScheme, KhanScheme, KrasowskaScheme, LuScheme, QinScheme, RahmanScheme,
    TaoScheme, UnderwoodScheme, WangScheme,
};
use pressio_core::{Compressor, Registry};
use pressio_sz::SzCompressor;
use pressio_zfp::ZfpCompressor;

/// Registry of all bundled prediction schemes.
pub fn standard_schemes() -> Registry<dyn Scheme> {
    let mut r: Registry<dyn Scheme> = Registry::new("scheme");
    r.register("tao2019", || Box::new(TaoScheme::default()));
    r.register("krasowska2021", || Box::new(KrasowskaScheme));
    r.register("underwood2023", || Box::new(UnderwoodScheme));
    r.register("jin2022", || Box::new(JinScheme));
    r.register("khan2023", || Box::new(KhanScheme));
    r.register("rahman2023", || Box::new(RahmanScheme::default()));
    r.register("ganguli2023", || Box::new(GanguliScheme));
    r.register("lu2018", || Box::new(LuScheme));
    r.register("qin2020", || Box::new(QinScheme));
    r.register("wang2023", || Box::new(WangScheme));
    r
}

/// Registry of the bundled compressors (`sz3`, `zfp`).
pub fn standard_compressors() -> Registry<dyn Compressor> {
    let mut r: Registry<dyn Compressor> = Registry::new("compressor");
    r.register("sz3", || Box::new(SzCompressor::new()));
    r.register("zfp", || Box::new(ZfpCompressor::new()));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_schemes_registered() {
        let r = standard_schemes();
        // all ten rows of the paper's Table 1
        for name in [
            "tao2019",
            "krasowska2021",
            "underwood2023",
            "jin2022",
            "khan2023",
            "rahman2023",
            "ganguli2023",
            "lu2018",
            "qin2020",
            "wang2023",
        ] {
            assert!(r.contains(name), "{name} missing");
            let scheme = r.build(name).unwrap();
            assert_eq!(scheme.info().name, name);
        }
        assert!(!r.contains("not_a_scheme"));
    }

    #[test]
    fn compressors_registered_and_functional() {
        let r = standard_compressors();
        assert_eq!(r.names(), vec!["sz3", "zfp"]);
        for name in r.names() {
            let c = r.build(name).unwrap();
            assert_eq!(c.id(), name);
        }
    }

    #[test]
    fn scheme_support_matrix_matches_table2() {
        let r = standard_schemes();
        // Table 2: jin (sian) supports sz3 only; khan and rahman support both
        assert!(r.build("jin2022").unwrap().supports("sz3"));
        assert!(!r.build("jin2022").unwrap().supports("zfp"));
        for name in ["khan2023", "rahman2023"] {
            let s = r.build(name).unwrap();
            assert!(s.supports("sz3") && s.supports("zfp"), "{name}");
        }
    }
}

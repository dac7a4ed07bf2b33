//! The SPANK-plugin flag surface.
//!
//! EAR integrates with SLURM through a SPANK plugin: users request energy
//! behaviour with `srun --ear=on --ear-policy=min_energy ...` flags, which
//! the plugin turns into the library configuration injected into the job.
//! This module parses that flag surface into an [`EarlConfig`].

use ear_core::conf::valid_policy_th;
use ear_core::{EarlConfig, ImcSearch, PolicySettings};
use ear_errors::EarError;

fn bad_flag(msg: String) -> EarError {
    EarError::config(format!("bad --ear flag: {msg}"))
}

/// Parses `srun`-style EAR flags. Returns `Ok(None)` when EAR is disabled
/// (`--ear=off` or no `--ear` flag at all: opt-in, like the real plugin's
/// default in many sites).
pub fn parse_spank_flags(flags: &str) -> Result<Option<EarlConfig>, EarError> {
    let mut enabled = false;
    let mut config = EarlConfig::default();
    for token in flags.split_whitespace() {
        let Some(rest) = token.strip_prefix("--ear") else {
            return Err(bad_flag(format!("unknown token '{token}'")));
        };
        let (key, value) = match rest.split_once('=') {
            Some((k, v)) => (k, v),
            None => (rest, ""),
        };
        match key {
            "" => match value {
                "on" | "1" | "" => enabled = true,
                "off" | "0" => return Ok(None),
                other => return Err(bad_flag(format!("--ear expects on/off, got '{other}'"))),
            },
            "-policy" => {
                config.policy_name = value.to_string();
            }
            "-model" => {
                config.model_name = value.to_string();
            }
            "-policy-th" | "-cpu-th" | "-unc-th" => {
                let v: f64 = value
                    .parse()
                    .map_err(|_| bad_flag(format!("'{value}' is not a number")))?;
                if !valid_policy_th(v) {
                    return Err(bad_flag(format!("threshold {v} outside [0, 0.5]")));
                }
                if key == "-unc-th" {
                    config.settings.unc_policy_th = v;
                } else {
                    config.settings.cpu_policy_th = v;
                }
            }
            "-imc-search" => {
                config.settings.imc_search = match value {
                    "hw" | "hw_guided" => ImcSearch::HwGuided,
                    "linear" => ImcSearch::Linear,
                    other => return Err(bad_flag(format!("unknown search '{other}'"))),
                };
            }
            other => return Err(bad_flag(format!("unknown flag '--ear{other}'"))),
        }
    }
    if enabled {
        Ok(Some(config))
    } else {
        Ok(None)
    }
}

/// The site defaults applied when a user passes `--ear=on` with nothing
/// else (mirrors `PolicySettings::default`, i.e. the paper's defaults).
pub fn site_default_settings() -> PolicySettings {
    PolicySettings::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_explicitly() {
        assert!(parse_spank_flags("").unwrap().is_none());
        assert!(parse_spank_flags("--ear=off").unwrap().is_none());
    }

    #[test]
    fn enabled_with_defaults() {
        let c = parse_spank_flags("--ear=on").unwrap().expect("enabled");
        assert_eq!(c.policy_name, "min_energy_eufs");
        assert_eq!(c.model_name, "avx512");
        assert!((c.settings.cpu_policy_th - 0.05).abs() < 1e-12);
    }

    #[test]
    fn full_flag_set() {
        let c = parse_spank_flags(
            "--ear=on --ear-policy=min_energy --ear-model=default --ear-cpu-th=0.03 \
             --ear-unc-th=0.01 --ear-imc-search=linear",
        )
        .unwrap()
        .expect("enabled");
        assert_eq!(c.policy_name, "min_energy");
        assert_eq!(c.model_name, "default");
        assert!((c.settings.cpu_policy_th - 0.03).abs() < 1e-12);
        assert!((c.settings.unc_policy_th - 0.01).abs() < 1e-12);
        assert_eq!(c.settings.imc_search, ImcSearch::Linear);
    }

    #[test]
    fn bad_flags_are_rejected_with_config_errors() {
        for flags in [
            "--frequency=max",
            "--ear=maybe",
            "--ear=on --ear-cpu-th=banana",
            "--ear=on --ear-cpu-th=0.9",
            "--ear=on --ear-unc-th=-0.1",
            "--ear=on --ear-unc-th=nan",
            "--ear=on --ear-turbo",
        ] {
            let err = parse_spank_flags(flags).unwrap_err();
            assert!(
                err.to_string().starts_with("config error: bad --ear flag"),
                "{err}"
            );
        }
    }
}

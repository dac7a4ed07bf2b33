//! `ear.conf` parsing.
//!
//! EAR is configured cluster-wide through `ear.conf`; the sysadmin sets the
//! default policy and thresholds there, and users may override a permitted
//! subset per job. This module parses the subset of that format this
//! reproduction uses into an [`EarlConfig`].
//!
//! Format: one `Key=Value` per line; `#` starts a comment; keys are
//! case-insensitive. Unknown keys and malformed values are hard errors —
//! a silently misread energy policy is worse than a failed job start.

use crate::earl::EarlConfig;
use crate::policy::api::{ImcRange, ImcSearch};
use std::fmt;

/// A configuration parse error with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ConfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ear.conf line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfError {}

impl From<ConfError> for ear_errors::EarError {
    fn from(e: ConfError) -> Self {
        ear_errors::EarError::Config {
            line: Some(e.line),
            message: e.message,
        }
    }
}

/// Whether `v` is a valid policy threshold (`CpuPolicyTh`,
/// `UncPolicyTh` and their SPANK and `earsim run` counterparts): a
/// fraction in [0, 0.5]. NaN is not.
pub fn valid_policy_th(v: f64) -> bool {
    (0.0..=0.5).contains(&v)
}

/// Parses `ear.conf` text into an [`EarlConfig`], starting from defaults.
///
/// ```
/// let config = ear_core::parse_ear_conf(
///     "Policy=min_energy_eufs\nUncPolicyTh=0.03  # looser uncore budget",
/// )
/// .unwrap();
/// assert_eq!(config.policy_name, "min_energy_eufs");
/// assert!((config.settings.unc_policy_th - 0.03).abs() < 1e-12);
/// ```
pub fn parse_ear_conf(text: &str) -> Result<EarlConfig, ConfError> {
    let mut config = EarlConfig::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ConfError {
                line: line_no,
                message: format!("expected Key=Value, got '{line}'"),
            });
        };
        let key = key.trim().to_ascii_lowercase();
        let value = value.trim();
        let err = |message: String| ConfError {
            line: line_no,
            message,
        };
        let parse_f64 = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| err(format!("'{v}' is not a number")))
        };
        let parse_usize = |v: &str| {
            v.parse::<usize>()
                .map_err(|_| err(format!("'{v}' is not an integer")))
        };
        match key.as_str() {
            "policy" => config.policy_name = value.to_string(),
            "model" => config.model_name = value.to_string(),
            "cpupolicyth" => {
                let v = parse_f64(value)?;
                if !valid_policy_th(v) {
                    return Err(err(format!("CpuPolicyTh {v} outside [0, 0.5]")));
                }
                config.settings.cpu_policy_th = v;
            }
            "uncpolicyth" => {
                let v = parse_f64(value)?;
                if !valid_policy_th(v) {
                    return Err(err(format!("UncPolicyTh {v} outside [0, 0.5]")));
                }
                config.settings.unc_policy_th = v;
            }
            "sigchangeth" => config.settings.sig_change_th = parse_f64(value)?,
            "defaultpstate" => config.settings.def_pstate = parse_usize(value)?,
            "mintimeeffgain" => config.settings.min_time_eff_gain = parse_f64(value)?,
            "imcsearch" => {
                config.settings.imc_search = match value.to_ascii_lowercase().as_str() {
                    "hw_guided" | "hwguided" | "hw" => ImcSearch::HwGuided,
                    "linear" | "not_guided" => ImcSearch::Linear,
                    other => return Err(err(format!("unknown ImcSearch '{other}'"))),
                };
            }
            "imcrange" => {
                let v = value.to_ascii_lowercase();
                config.settings.imc_range = if v == "max_only" || v == "maxonly" {
                    ImcRange::MaxOnly
                } else if v == "pinned" {
                    ImcRange::Pinned
                } else if let Some(n) = v.strip_prefix("band:") {
                    ImcRange::Band(
                        n.parse()
                            .map_err(|_| err(format!("bad band width '{n}'")))?,
                    )
                } else {
                    return Err(err(format!("unknown ImcRange '{value}'")));
                };
            }
            "minsignaturewindow" => {
                let v = parse_f64(value)?;
                if v <= 0.0 {
                    return Err(err("MinSignatureWindow must be positive".into()));
                }
                config.min_signature_window_s = v;
            }
            "dynaislevels" => {
                let v = parse_usize(value)?;
                if v == 0 {
                    return Err(err("DynaisLevels must be at least 1".into()));
                }
                config.dynais.levels = v;
            }
            "dynaiswindowsize" => {
                let v = parse_usize(value)?;
                if v < 4 {
                    return Err(err("DynaisWindowSize must be at least 4".into()));
                }
                config.dynais.window_size = v;
            }
            other => return Err(err(format!("unknown key '{other}'"))),
        }
    }
    Ok(config)
}

/// Renders an [`EarlConfig`] back to `ear.conf` text (round-trippable).
pub fn render_ear_conf(config: &EarlConfig) -> String {
    let search = match config.settings.imc_search {
        ImcSearch::HwGuided => "hw_guided",
        ImcSearch::Linear => "linear",
    };
    let range = match config.settings.imc_range {
        ImcRange::MaxOnly => "max_only".to_string(),
        ImcRange::Pinned => "pinned".to_string(),
        ImcRange::Band(n) => format!("band:{n}"),
    };
    format!(
        "# EAR configuration (generated)\n\
         Policy={}\n\
         Model={}\n\
         CpuPolicyTh={}\n\
         UncPolicyTh={}\n\
         SigChangeTh={}\n\
         DefaultPstate={}\n\
         MinTimeEffGain={}\n\
         ImcSearch={search}\n\
         ImcRange={range}\n\
         MinSignatureWindow={}\n\
         DynaisLevels={}\n\
         DynaisWindowSize={}\n",
        config.policy_name,
        config.model_name,
        config.settings.cpu_policy_th,
        config.settings.unc_policy_th,
        config.settings.sig_change_th,
        config.settings.def_pstate,
        config.settings.min_time_eff_gain,
        config.min_signature_window_s,
        config.dynais.levels,
        config.dynais.window_size,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_configuration() {
        let conf = "\
            # the paper's default setup\n\
            Policy=min_energy_eufs\n\
            CpuPolicyTh=0.05\n\
            UncPolicyTh=0.02   # extra uncore budget\n\
            ImcSearch=hw_guided\n\
            ImcRange=max_only\n\
            MinSignatureWindow=10\n";
        let c = parse_ear_conf(conf).unwrap();
        assert_eq!(c.policy_name, "min_energy_eufs");
        assert!((c.settings.cpu_policy_th - 0.05).abs() < 1e-12);
        assert!((c.settings.unc_policy_th - 0.02).abs() < 1e-12);
        assert_eq!(c.settings.imc_search, ImcSearch::HwGuided);
        assert_eq!(c.settings.imc_range, ImcRange::MaxOnly);
    }

    #[test]
    fn empty_conf_is_defaults() {
        let c = parse_ear_conf("").unwrap();
        let d = EarlConfig::default();
        assert_eq!(c.policy_name, d.policy_name);
        assert_eq!(c.min_signature_window_s, d.min_signature_window_s);
    }

    #[test]
    fn keys_are_case_insensitive() {
        let c = parse_ear_conf("POLICY=min_time\ncpupolicyth=0.03").unwrap();
        assert_eq!(c.policy_name, "min_time");
        assert!((c.settings.cpu_policy_th - 0.03).abs() < 1e-12);
    }

    #[test]
    fn band_range_parses() {
        let c = parse_ear_conf("ImcRange=band:3").unwrap();
        assert_eq!(c.settings.imc_range, ImcRange::Band(3));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_ear_conf("Policy=ok\nNotAKey=1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown key"));

        let e = parse_ear_conf("CpuPolicyTh=not_a_number").unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse_ear_conf("just junk").unwrap_err();
        assert!(e.message.contains("Key=Value"));
    }

    #[test]
    fn out_of_range_thresholds_rejected() {
        assert!(parse_ear_conf("CpuPolicyTh=0.9").is_err());
        assert!(parse_ear_conf("UncPolicyTh=-0.1").is_err());
        assert!(parse_ear_conf("CpuPolicyTh=NaN").is_err());
        assert!(parse_ear_conf("MinSignatureWindow=0").is_err());
        assert!(parse_ear_conf("DynaisLevels=0").is_err());
    }

    #[test]
    fn render_roundtrips() {
        let mut c = EarlConfig {
            policy_name: "min_time_eufs".into(),
            model_name: "default".into(),
            ..Default::default()
        };
        c.settings.unc_policy_th = 0.03;
        c.settings.imc_range = ImcRange::Band(2);
        c.dynais.levels = 6;
        let text = render_ear_conf(&c);
        let back = parse_ear_conf(&text).unwrap();
        assert_eq!(back.policy_name, c.policy_name);
        assert_eq!(back.model_name, "default");
        assert_eq!(back.settings.unc_policy_th, c.settings.unc_policy_th);
        assert_eq!(back.settings.imc_range, c.settings.imc_range);
        assert_eq!(back.dynais.levels, 6);
    }

    #[test]
    fn model_key_parses() {
        let c = parse_ear_conf("Model=default").unwrap();
        assert_eq!(c.model_name, "default");
        assert_eq!(parse_ear_conf("").unwrap().model_name, "avx512");
    }
}

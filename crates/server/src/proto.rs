//! The line protocol: request parsing and response formatting.
//!
//! Kept separate from the transport so it is unit-testable without sockets
//! and reusable over any line-delimited byte stream.

use crate::verdict::push_verdict;
use opprentice::Detection;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `HELLO <interval_seconds> [session_id]` — must be the first command.
    /// With a session id (and a server-side state directory) the session is
    /// durable: every applied command is write-ahead logged and the trained
    /// state snapshotted, so `RESUME` can rebuild it after a crash.
    Hello {
        /// KPI sampling interval in seconds.
        interval: u32,
        /// Durable session id (`[A-Za-z0-9_-]{1,64}`), if any.
        session: Option<String>,
    },
    /// `RESUME <session_id>` — instead of `HELLO`: rebuild a durable
    /// session from its write-ahead log and latest snapshot.
    Resume {
        /// The durable session id to recover.
        session: String,
    },
    /// `PREF <recall> <precision>` — set the accuracy preference.
    Pref {
        /// Minimum acceptable recall, in `(0, 1]`.
        recall: f64,
        /// Minimum acceptable precision, in `(0, 1]`.
        precision: f64,
    },
    /// `OBS <ts> <value|nan>` — feed one point.
    Obs {
        /// Epoch seconds of the point.
        timestamp: i64,
        /// The value (`None` = missing point).
        value: Option<f64>,
    },
    /// `OBSB <ts0> <v0> [v1 ...]` — feed a batch of consecutive points in
    /// one line. Point `i` lands at `ts0 + i * interval`; the reply is one
    /// `OK` line with the per-point verdicts joined by `|`, each rendered
    /// exactly as the equivalent `OBS` would have rendered it.
    ObsBatch {
        /// Epoch seconds of the first point.
        start: i64,
        /// The values, one per point (`None` = missing point).
        values: Vec<Option<f64>>,
    },
    /// `LABEL <flags>` — label the oldest unlabeled points (`0`/`1` chars).
    Label {
        /// One flag per point, oldest first.
        flags: Vec<bool>,
    },
    /// `RETRAIN` — incremental retraining round.
    Retrain,
    /// `STATUS` — report counters.
    Status,
    /// `QUIT` — close the connection.
    Quit,
}

/// A server response, rendered as one line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `OK …`
    Ok(String),
    /// `OK <verdict>` — an `OBS` reply, rendered on the way out.
    Verdict(Option<Detection>),
    /// `OK <verdict>|<verdict>|…` — an `OBSB` reply, one verdict per point.
    Verdicts(Vec<Option<Detection>>),
    /// `ERR <reason>`
    Err(String),
    /// `BYE`
    Bye,
}

impl Response {
    /// True for the `OK` forms.
    pub fn is_ok(&self) -> bool {
        matches!(
            self,
            Response::Ok(_) | Response::Verdict(_) | Response::Verdicts(_)
        )
    }

    /// Appends the response line (without the trailing newline) to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok(s) if s.is_empty() => out.extend_from_slice(b"OK"),
            Response::Ok(s) => {
                out.extend_from_slice(b"OK ");
                out.extend_from_slice(s.as_bytes());
            }
            Response::Verdict(d) => {
                out.extend_from_slice(b"OK ");
                push_verdict(out, *d);
            }
            Response::Verdicts(ds) => {
                out.extend_from_slice(b"OK ");
                for (i, d) in ds.iter().enumerate() {
                    if i > 0 {
                        out.push(b'|');
                    }
                    push_verdict(out, *d);
                }
            }
            Response::Err(s) => {
                out.extend_from_slice(b"ERR ");
                out.extend_from_slice(s.as_bytes());
            }
            Response::Bye => out.extend_from_slice(b"BYE"),
        }
    }

    /// Renders the response line (without the trailing newline).
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out);
        String::from_utf8(out).expect("responses are UTF-8")
    }
}

/// Validates a durable session id: it becomes a directory name on the
/// server, so the alphabet is locked down hard (no separators, no dots —
/// nothing a path traversal could be built from).
pub fn validate_session_id(id: &str) -> Result<(), String> {
    if id.is_empty() || id.len() > 64 {
        return Err("session id must be 1..=64 chars".to_string());
    }
    if !id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    {
        return Err("session id may only contain [A-Za-z0-9_-]".to_string());
    }
    Ok(())
}

/// Parses one `OBS`/`OBSB` value token: a finite f64, or `nan` for a
/// missing point.
fn parse_value(raw: &str) -> Result<Option<f64>, String> {
    if raw.eq_ignore_ascii_case("nan") {
        return Ok(None);
    }
    let v: f64 = raw.parse().map_err(|_| "bad value")?;
    if !v.is_finite() {
        return Err("value must be finite".to_string());
    }
    Ok(Some(v))
}

/// Parses one request line. Returns `Err` with a human-readable reason on
/// malformed input (the connection stays usable — bad lines are answered
/// with `ERR`, not dropped, so an operator poking at the port with netcat
/// gets feedback).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().ok_or("empty line")?;
    // Commands are case-insensitive; the word is uppercased in a stack
    // buffer as long as the longest command (no allocation per line).
    let mut upper = [0u8; 7];
    let word: &[u8] = match upper.get_mut(..cmd.len()) {
        Some(word) => {
            word.copy_from_slice(cmd.as_bytes());
            word.make_ascii_uppercase();
            word
        }
        None => b"",
    };
    let parsed = match word {
        b"HELLO" => {
            let interval: u32 = parts
                .next()
                .ok_or("HELLO needs an interval")?
                .parse()
                .map_err(|_| "bad interval")?;
            // The detectors index per-slot state by time of day and week,
            // which only works when the interval tiles the day.
            if !opprentice_timeseries::is_supported_interval(interval) {
                return Err(
                    "interval must divide 86400 and leave at least 2 points per day".to_string(),
                );
            }
            let session = match parts.next() {
                Some(id) => {
                    validate_session_id(id)?;
                    Some(id.to_string())
                }
                None => None,
            };
            Request::Hello { interval, session }
        }
        b"RESUME" => {
            let id = parts.next().ok_or("RESUME needs a session id")?;
            validate_session_id(id)?;
            Request::Resume {
                session: id.to_string(),
            }
        }
        b"PREF" => {
            let recall: f64 = parts
                .next()
                .ok_or("PREF needs recall")?
                .parse()
                .map_err(|_| "bad recall")?;
            let precision: f64 = parts
                .next()
                .ok_or("PREF needs precision")?
                .parse()
                .map_err(|_| "bad precision")?;
            // Zero would make the preference vacuous (every operating point
            // "satisfies" recall >= 0), so the domain is half-open.
            if !(recall > 0.0 && recall <= 1.0 && precision > 0.0 && precision <= 1.0) {
                return Err("preference out of (0, 1]".to_string());
            }
            Request::Pref { recall, precision }
        }
        b"OBS" => {
            let timestamp: i64 = parts
                .next()
                .ok_or("OBS needs a timestamp")?
                .parse()
                .map_err(|_| "bad timestamp")?;
            let raw = parts.next().ok_or("OBS needs a value")?;
            Request::Obs {
                timestamp,
                value: parse_value(raw)?,
            }
        }
        b"OBSB" => {
            let start: i64 = parts
                .next()
                .ok_or("OBSB needs a start timestamp")?
                .parse()
                .map_err(|_| "bad timestamp")?;
            let mut values = Vec::new();
            for raw in parts.by_ref() {
                values.push(parse_value(raw)?);
            }
            if values.is_empty() {
                return Err("OBSB needs at least one value".to_string());
            }
            Request::ObsBatch { start, values }
        }
        b"LABEL" => {
            let raw = parts.next().ok_or("LABEL needs flags")?;
            let mut flags = Vec::with_capacity(raw.len());
            for c in raw.chars() {
                match c {
                    '0' => flags.push(false),
                    '1' => flags.push(true),
                    other => return Err(format!("bad flag char `{other}`")),
                }
            }
            if flags.is_empty() {
                return Err("empty flags".to_string());
            }
            Request::Label { flags }
        }
        b"RETRAIN" => Request::Retrain,
        b"STATUS" => Request::Status,
        b"QUIT" => Request::Quit,
        _ => return Err(format!("unknown command `{}`", cmd.to_ascii_uppercase())),
    };
    if parts.next().is_some() {
        return Err("trailing arguments".to_string());
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(
            parse_request("HELLO 60"),
            Ok(Request::Hello {
                interval: 60,
                session: None
            })
        );
        assert_eq!(
            parse_request("HELLO 60 web-pv_7"),
            Ok(Request::Hello {
                interval: 60,
                session: Some("web-pv_7".into())
            })
        );
        assert_eq!(
            parse_request("RESUME web-pv_7"),
            Ok(Request::Resume {
                session: "web-pv_7".into()
            })
        );
        assert_eq!(
            parse_request("PREF 0.66 0.66"),
            Ok(Request::Pref {
                recall: 0.66,
                precision: 0.66
            })
        );
        assert_eq!(
            parse_request("OBS 1000 42.5"),
            Ok(Request::Obs {
                timestamp: 1000,
                value: Some(42.5)
            })
        );
        assert_eq!(
            parse_request("OBS 1000 nan"),
            Ok(Request::Obs {
                timestamp: 1000,
                value: None
            })
        );
        assert_eq!(
            parse_request("OBSB 1000 1.5 nan 3"),
            Ok(Request::ObsBatch {
                start: 1000,
                values: vec![Some(1.5), None, Some(3.0)]
            })
        );
        assert_eq!(
            parse_request("LABEL 0101"),
            Ok(Request::Label {
                flags: vec![false, true, false, true]
            })
        );
        assert_eq!(parse_request("RETRAIN"), Ok(Request::Retrain));
        assert_eq!(parse_request("STATUS"), Ok(Request::Status));
        assert_eq!(parse_request("QUIT"), Ok(Request::Quit));
    }

    #[test]
    fn commands_are_case_insensitive() {
        assert_eq!(
            parse_request("hello 300"),
            Ok(Request::Hello {
                interval: 300,
                session: None
            })
        );
        assert_eq!(
            parse_request("obs 0 NaN"),
            Ok(Request::Obs {
                timestamp: 0,
                value: None
            })
        );
    }

    #[test]
    fn session_ids_are_locked_down() {
        // The id becomes a directory name: nothing traversal-shaped.
        for bad in ["..", "a/b", "a\\b", "a.b", "", "a b", &"x".repeat(65)] {
            assert!(validate_session_id(bad).is_err(), "{bad:?} accepted");
            assert!(
                parse_request(&format!("RESUME {bad}")).is_err(),
                "{bad:?} parsed"
            );
        }
        for good in ["a", "A-1", "web_pv", &"x".repeat(64)] {
            assert!(validate_session_id(good).is_ok(), "{good:?} rejected");
        }
    }

    #[test]
    fn hello_accepts_only_intervals_that_tile_the_day() {
        for ok in [1u32, 60, 300, 3600, 43_200] {
            assert_eq!(
                parse_request(&format!("HELLO {ok}")),
                Ok(Request::Hello {
                    interval: ok,
                    session: None
                }),
                "HELLO {ok}"
            );
        }
        // 7 and 61 do not divide a day (the last slot of the day would
        // overrun per-slot state); 86400 and up leave one point per day.
        for bad in [0u32, 7, 61, 86_400, 604_800] {
            let err = parse_request(&format!("HELLO {bad}")).unwrap_err();
            assert!(err.contains("86400"), "HELLO {bad}: {err}");
        }
    }

    #[test]
    fn zero_preference_is_rejected() {
        // recall = 0 or precision = 0 makes the preference vacuous.
        assert!(parse_request("PREF 0 0.5").is_err());
        assert!(parse_request("PREF 0.5 0").is_err());
        assert!(parse_request("PREF 0.0 0.0").is_err());
        assert!(parse_request("PREF 1 1").is_ok());
        assert!(parse_request("PREF nan 0.5").is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_request("").is_err());
        assert!(parse_request("HELLO").is_err());
        assert!(parse_request("HELLO abc").is_err());
        assert!(parse_request("HELLO 0").is_err());
        assert!(parse_request("OBS 5").is_err());
        assert!(parse_request("OBS x 1.0").is_err());
        assert!(parse_request("OBS 5 inf").is_err());
        assert!(parse_request("OBSB").is_err());
        assert!(parse_request("OBSB 5").is_err());
        assert!(parse_request("OBSB 5 1.0 x").is_err());
        assert!(parse_request("OBSB x 1.0").is_err());
        assert!(parse_request("OBSB 5 1.0 inf").is_err());
        assert!(parse_request("LABEL 01x").is_err());
        assert!(parse_request("LABEL").is_err());
        assert!(parse_request("PREF 2 0.5").is_err());
        assert!(parse_request("FLY ME").is_err());
        assert_eq!(
            parse_request("retrains"),
            Err("unknown command `RETRAINS`".to_string())
        );
        assert_eq!(parse_request("ob"), Err("unknown command `OB`".to_string()));
        assert!(parse_request("STATUS noise").is_err());
    }

    #[test]
    fn response_rendering() {
        assert_eq!(Response::Ok(String::new()).render(), "OK");
        assert_eq!(Response::Ok("p=0.5".into()).render(), "OK p=0.5");
        assert_eq!(Response::Err("nope".into()).render(), "ERR nope");
        assert_eq!(Response::Bye.render(), "BYE");
        let hit = Detection {
            probability: 0.8125,
            cthld: 0.3125,
            is_anomaly: true,
        };
        assert_eq!(
            Response::Verdict(Some(hit)).render(),
            "OK p=0.8125 cthld=0.312 anomaly=1"
        );
        assert_eq!(Response::Verdict(None).render(), "OK pending");
        assert_eq!(
            Response::Verdicts(vec![None, Some(hit)]).render(),
            "OK pending|p=0.8125 cthld=0.312 anomaly=1"
        );
        assert!(Response::Verdicts(vec![]).is_ok());
        assert!(!Response::Err("nope".into()).is_ok());
    }
}

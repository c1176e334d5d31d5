//! The output check: every response against the replay's oracle.

use cp_runtime::json::Json;

use crate::trace::Kind;

/// What a response must agree on with the oracle: status, the verdict
/// (visit probes and classify calls) and the cookies newly marked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// HTTP status.
    pub status: u16,
    /// `cookies_caused_difference`, when the request reached a decision.
    pub verdict: Option<bool>,
    /// `marked_now` of a visit.
    pub marked_now: Vec<String>,
}

impl Outcome {
    /// An outcome with a status and nothing else to compare.
    pub fn plain(status: u16) -> Outcome {
        Outcome { status, verdict: None, marked_now: Vec::new() }
    }

    /// Reads the compared fields out of a response body.
    pub fn from_response(kind: Kind, status: u16, body: &[u8]) -> Outcome {
        let mut outcome = Outcome::plain(status);
        if status != 200 || !matches!(kind, Kind::Visit | Kind::Classify) {
            return outcome;
        }
        let Some(json) = std::str::from_utf8(body).ok().and_then(|b| Json::parse(b).ok()) else {
            // An unparseable 200 cannot match any oracle outcome.
            outcome.status = 0;
            return outcome;
        };
        match kind {
            Kind::Visit => {
                outcome.verdict = json
                    .get("record")
                    .and_then(|r| r.get("decision"))
                    .and_then(|d| d.get("cookies_caused_difference"))
                    .and_then(Json::as_bool);
                outcome.marked_now = json
                    .get("marked_now")
                    .and_then(Json::as_array)
                    .map(|a| a.iter().filter_map(Json::as_str).map(str::to_string).collect())
                    .unwrap_or_default();
            }
            _ => {
                outcome.verdict = json.get("cookies_caused_difference").and_then(Json::as_bool);
            }
        }
        outcome
    }

    /// Whether the request counts as failed without an oracle: any
    /// non-2xx status (a transport failure or timeout has no outcome).
    pub fn is_error(&self) -> bool {
        !(200..300).contains(&self.status)
    }
}

/// Indices of the requests whose response is missing, non-2xx, or
/// disagrees with the oracle.
pub fn failures(expected: &[Outcome], got: &[Option<Outcome>]) -> Vec<usize> {
    assert_eq!(expected.len(), got.len(), "one response slot per request");
    expected
        .iter()
        .zip(got)
        .enumerate()
        .filter(|(_, (want, got))| match got {
            Some(got) => got.is_error() || got != *want,
            None => true,
        })
        .map(|(i, _)| i)
        .collect()
}

/// Useful / noise verdict tally of a set of outcomes.
pub fn tally(outcomes: &[Outcome]) -> (u64, u64) {
    let useful = outcomes.iter().filter(|o| o.verdict == Some(true)).count() as u64;
    let noise = outcomes.iter().filter(|o| o.verdict == Some(false)).count() as u64;
    (useful, noise)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit_body(verdict: bool, marked: &str) -> Vec<u8> {
        format!(
            "{{\"host\":\"a.example\",\"marked_now\":[{marked}],\"record\":{{\"decision\":\
             {{\"cookies_caused_difference\":{verdict}}}}}}}"
        )
        .into_bytes()
    }

    #[test]
    fn one_flipped_verdict_is_rejected() {
        let expected = vec![
            Outcome::from_response(Kind::Visit, 200, &visit_body(true, "\"sid\"")),
            Outcome::from_response(Kind::Classify, 200, b"{\"cookies_caused_difference\":false}"),
            Outcome::from_response(Kind::Healthz, 200, b"{}"),
        ];
        assert_eq!(expected[0].verdict, Some(true));
        assert_eq!(expected[0].marked_now, vec!["sid".to_string()]);
        let same: Vec<Option<Outcome>> = expected.iter().cloned().map(Some).collect();
        assert!(failures(&expected, &same).is_empty());

        let mut flipped = same.clone();
        flipped[1] = Some(Outcome::from_response(
            Kind::Classify,
            200,
            b"{\"cookies_caused_difference\":true}",
        ));
        assert_eq!(failures(&expected, &flipped), vec![1]);

        let mut flipped_visit = same.clone();
        flipped_visit[0] =
            Some(Outcome::from_response(Kind::Visit, 200, &visit_body(false, "\"sid\"")));
        assert_eq!(failures(&expected, &flipped_visit), vec![0]);
    }

    #[test]
    fn missing_marks_errors_and_lost_responses_fail() {
        let expected = vec![
            Outcome::from_response(Kind::Visit, 200, &visit_body(true, "\"sid\"")),
            Outcome::from_response(Kind::Healthz, 200, b"{}"),
            Outcome::from_response(Kind::Healthz, 200, b"{}"),
        ];
        let got = vec![
            Some(Outcome::from_response(Kind::Visit, 200, &visit_body(true, ""))),
            Some(Outcome::plain(503)),
            None,
        ];
        assert_eq!(failures(&expected, &got), vec![0, 1, 2]);
        assert_eq!(tally(&expected), (1, 0));
    }
}
